// Command axcompile runs the compiler-side analysis of ISCA'19 §5 on a
// benchmark: it traces the unmemoized program on a sample input, builds
// the dynamic data dependence graph, searches it for AxMemo-transformable
// candidate subgraphs, and prints the Table 1 metrics plus the suggested
// kernel functions.
//
// With -disasm it instead lowers the benchmark's memoized program
// through the bytecode compiler (internal/bytecode) and prints the flat
// instruction stream: pc, opcode, resolved operand indices and the
// source IR instruction each slot was lowered from.
//
// Usage:
//
//	axcompile -bench blackscholes [-max-entries 120000]
//	axcompile -bench sobel -disasm
//	axcompile -table1
package main

import (
	"flag"
	"fmt"
	"io"

	"axmemo/internal/bytecode"
	"axmemo/internal/cli"
	"axmemo/internal/compiler"
	"axmemo/internal/core"
	"axmemo/internal/harness"
	"axmemo/internal/workloads"
)

func main() { cli.Main("axcompile", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("axcompile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName  = fs.String("bench", "", "analyze one benchmark")
		table1     = fs.Bool("table1", false, "print the full Table 1 analysis for all benchmarks")
		maxEntries = fs.Int("max-entries", 120_000, "dynamic trace cap")
		disasm     = fs.Bool("disasm", false, "print the benchmark's memoized program as a bytecode listing instead of analyzing it")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	switch {
	case *disasm:
		if *benchName == "" {
			return cli.Usagef("-disasm needs -bench")
		}
		w, err := workloads.ByName(*benchName)
		if err != nil {
			return err
		}
		prog := w.Build()
		if err := compiler.Transform(prog, w.Regions(nil)); err != nil {
			return err
		}
		bp, err := bytecode.Compile(prog, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, bp.Disassemble())
	case *table1:
		fig, err := harness.Table1(*maxEntries)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, fig.String())
	case *benchName != "":
		w, err := workloads.ByName(*benchName)
		if err != nil {
			return err
		}
		a, err := harness.AnalyzeWorkload(w, *maxEntries)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchmark:          %s\n", w.Name)
		fmt.Fprintf(stdout, "dynamic subgraphs:  %d\n", a.DynamicSubgraphs)
		fmt.Fprintf(stdout, "unique subgraphs:   %d\n", len(a.UniqueGroups))
		fmt.Fprintf(stdout, "mean CI ratio:      %.2f\n", a.MeanCIRatio)
		fmt.Fprintf(stdout, "memoization coverage: %.2f%%\n", 100*a.Coverage)
		for i, g := range a.UniqueGroups {
			if i >= 8 {
				fmt.Fprintf(stdout, "  ... and %d more groups\n", len(a.UniqueGroups)-8)
				break
			}
			fmt.Fprintf(stdout, "  group %d: %d instances, %d static insns, CI %.2f, mean inputs %.1f\n",
				i, g.Count, len(g.SIDs), g.MeanRatio, g.MeanInputs)
		}
		names := core.DiscoverRegions(w.Build(), a)
		fmt.Fprintf(stdout, "suggested kernels:  %v\n", names)
	default:
		fs.Usage()
		return cli.Usagef("one of -bench or -table1 is required")
	}
	return nil
}
