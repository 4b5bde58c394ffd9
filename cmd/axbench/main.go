// Command axbench times the experiment harness serially and on the
// parallel sweep scheduler, checks the two render byte-identical
// figures, times a fixed host-speed reference kernel around the sweeps,
// measures interpreter throughput on both execution engines, and writes
// a machine-readable summary (BENCH_harness.json, schema
// harness.BenchReportSchema) — the evidence file for the scheduler's
// wall-clock claim and the bytecode engine's speedup claim.
//
// Usage:
//
//	axbench [-figures Fig7a,Fig7b,Fig8,Fig9,Fig10a] [-workers 0] [-scale 1]
//	        [-interp-insns 2000000] [-out BENCH_harness.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"axmemo/internal/cli"
	"axmemo/internal/cpu"
	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/store"
)

func main() { cli.Main("axbench", run) }

// hostRefReps is how many times the host-speed reference is timed at
// each of its three points around the sweeps.
const hostRefReps = 3

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("axbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figureList = fs.String("figures", "Fig7a,Fig7b,Fig8,Fig9,Fig10a", "comma-separated figure IDs to sweep ('all' for every figure)")
		workers    = fs.Int("workers", 0, "parallel pool size (0 = one worker per CPU)")
		scale      = fs.Int("scale", 1, "input scale")
		out        = fs.String("out", "BENCH_harness.json", "output file ('-' for stdout only)")
		metricsOut = fs.String("metrics-out", "", "write the parallel sweep's deterministic metrics snapshot (JSON) to this file")
		traceOut   = fs.String("trace-out", "", "write the parallel sweep's Chrome trace-event timeline (JSON) to this file")

		storeDir      = fs.String("store-dir", "", "attach this content-addressed store directory to the parallel sweep and report its hit/miss counts")
		storeMaxBytes = fs.Int64("store-max-bytes", 0, "store size budget; least-recently-used cells are evicted past it (0 = unlimited)")

		interpInsn = fs.Uint64("interp-insns", 2_000_000, "retired instructions per engine for the interpreter throughput measurement (0 skips it)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	var ids []string
	if strings.EqualFold(*figureList, "all") {
		ids = harness.FigureIDs()
	} else {
		for _, id := range strings.Split(*figureList, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	cells, err := harness.SweepCells(ids...)
	if err != nil {
		return err
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	render := func(pool int, sink *obs.Sink, st *store.Store) (string, time.Duration, error) {
		s := harness.NewSuite(*scale)
		s.Parallel = pool
		s.Obs = sink
		if st != nil {
			s.Store = st
		}
		start := time.Now()
		figs, err := s.GenerateAll(ids...)
		if err != nil {
			return "", 0, err
		}
		elapsed := time.Since(start)
		var sb strings.Builder
		for _, f := range figs {
			sb.WriteString(f.String())
		}
		return sb.String(), elapsed, nil
	}

	// The parallel rendering carries the observability sink: its
	// deterministic artifacts must match what a serial sweep would emit
	// (asserted end-to-end by the cmd tests).
	var sink *obs.Sink
	if *metricsOut != "" || *traceOut != "" {
		sink = obs.NewSink()
	}
	// The store rides on the timed parallel sweep only, so the serial
	// leg stays an honest all-simulated reference and the report's
	// hit/miss counts describe exactly one sweep.
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, *storeMaxBytes); err != nil {
			return err
		}
		defer st.Close()
		st.Attach(sink)
	}
	// The host-speed reference is timed before, between and after the
	// two sweeps, so its median describes the stretch they ran in.
	var ref hostRef
	if err := ref.sample(hostRefReps); err != nil {
		return err
	}
	serialOut, serialT, err := render(1, nil, nil)
	if err != nil {
		return err
	}
	if err := ref.sample(hostRefReps); err != nil {
		return err
	}
	parallelOut, parallelT, err := render(*workers, sink, st)
	if err != nil {
		return err
	}
	if err := ref.sample(hostRefReps); err != nil {
		return err
	}
	refMs := ref.median()

	r := harness.BenchReport{
		Generated:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		CPUs:            runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Scale:           *scale,
		Figures:         ids,
		Cells:           len(cells),
		Workers:         *workers,
		SerialSeconds:   serialT.Seconds(),
		ParallelSeconds: parallelT.Seconds(),
		Speedup:         serialT.Seconds() / parallelT.Seconds(),
		IdenticalOutput: serialOut == parallelOut,
		HostRefMs:       refMs,
		SerialPerRef:    serialT.Seconds() * 1e3 / refMs,
		ParallelPerRef:  parallelT.Seconds() * 1e3 / refMs,
	}
	if r.GoMaxProcs == 1 {
		fmt.Fprintln(stderr, "warning: GOMAXPROCS=1 — the parallel speedup figure is meaningless on a single CPU")
	}
	if st != nil {
		stats := st.Stats()
		r.StoreDir = *storeDir
		r.StoreHits = stats.Hits
		r.StoreMisses = stats.Misses
		r.StoreEvictions = stats.Evictions
	}

	// Interpreter throughput: both engines on the same hot-loop program,
	// so the report carries the engine comparison next to the sweep
	// timings (the claim `go test -bench BenchmarkStepHotPath` makes,
	// reproducible without the test harness).
	if *interpInsn > 0 {
		treeNs, err := cpu.MeasureHotLoop(cpu.EngineTree, *interpInsn)
		if err != nil {
			return err
		}
		bcNs, err := cpu.MeasureHotLoop(cpu.EngineBytecode, *interpInsn)
		if err != nil {
			return err
		}
		r.TreeNsPerInsn = treeNs
		r.BytecodeNsPerInsn = bcNs
		r.InterpSpeedup = treeNs / bcNs
		fmt.Fprintf(stdout, "interpreter: tree %.1f ns/insn, bytecode %.1f ns/insn (%.2fx)\n",
			treeNs, bcNs, r.InterpSpeedup)
	}

	enc, err := r.Encode()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d cells, %d workers: serial %.2fs, parallel %.2fs (%.2fx), identical=%v\n",
		r.Cells, r.Workers, r.SerialSeconds, r.ParallelSeconds, r.Speedup, r.IdenticalOutput)
	fmt.Fprintf(stdout, "host reference %.1f ms: serial %.1f, parallel %.1f reference runs\n",
		r.HostRefMs, r.SerialPerRef, r.ParallelPerRef)
	if *out != "-" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *out)
	} else {
		stdout.Write(enc)
	}
	if err := sink.WriteFiles(*metricsOut, *traceOut, ""); err != nil {
		return err
	}
	if !r.IdenticalOutput {
		return fmt.Errorf("parallel sweep output differs from serial")
	}
	return nil
}
