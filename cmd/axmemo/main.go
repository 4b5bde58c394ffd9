// Command axmemo runs one benchmark under one AxMemo configuration and
// prints the measured speedup, energy saving, hit rate and output
// quality against the unmemoized baseline.
//
// Usage:
//
//	axmemo -bench sobel -l1 8 -l2 512 [-scale 2] [-trunc off] [-mode hw|soft|atm]
//	axmemo -bench sobel -fault-sweep 0,1e-4,1e-2 -guard-budget 0.05
//	axmemo -figures Fig7a,Fig9 -parallel 4
//	axmemo -list
//
// Observability: -metrics-out, -trace-out and -events-out write the
// run's deterministic metrics snapshot, Chrome trace and JSONL event
// log; -debug-addr serves the live registry (expvar) and pprof over
// HTTP for the duration of the run.  -cpuprofile/-memprofile write
// pprof profiles of whatever the invocation runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"axmemo/internal/cli"
	"axmemo/internal/compiler"
	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

func main() { cli.Main("axmemo", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("axmemo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "blackscholes", "benchmark name (see -list)")
		l1        = fs.Int("l1", 8, "L1 LUT size in KB (hardware mode)")
		l2        = fs.Int("l2", 512, "L2 LUT size in KB, 0 disables (hardware mode)")
		scale     = fs.Int("scale", 1, "input scale (1 = test size; larger approaches the paper's datasets)")
		mode      = fs.String("mode", "hw", "memoization mode: hw, soft (software LUT), atm")
		truncOff  = fs.Bool("trunc-off", false, "disable input truncation (Fig. 11's no-approximation case)")
		list      = fs.Bool("list", false, "list benchmarks and exit")
		dump      = fs.Bool("dump", false, "print the benchmark's memoized program in textual IR and exit")

		faultRates  = fs.String("fault-sweep", "", "comma-separated LUT bit-flip rates; runs a fault sweep instead of a single run (e.g. 0,1e-4,1e-2)")
		faultSeed   = fs.Int64("fault-seed", 1, "fault-injection seed (deterministic pattern per seed)")
		guardBudget = fs.Float64("guard-budget", 0, "per-LUT quality-guard relative-error budget; > 0 arms the guard (and adds a guarded column to fault sweeps)")
		maxCycles   = fs.Uint64("max-cycles", 0, "cycle-budget watchdog; the run fails past this many simulated cycles (0 = unlimited)")

		manage       = fs.String("manage", "", "tenants JSON file; runs the closed-loop approximation manager on -bench for every declared tenant and prints the convergence trajectory plus a managed-vs-static A/B table")
		manageEpochs = fs.Int("manage-epochs", 32, "control-epoch budget for -manage convergence")
		manageLUTKB  = fs.Int("manage-lut-kb", 0, "LUT capacity the manager divides across tenants (0 = 64)")

		figures    = fs.String("figures", "", "generate evaluation figures through the parallel sweep scheduler instead of a single run (comma-separated IDs or 'all')")
		parallel   = fs.Int("parallel", 0, "sweep worker pool size for -figures (0 = one worker per CPU, 1 = serial)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")

		storeDir      = fs.String("store-dir", "", "reuse simulation results from this content-addressed store directory (shared with axmemod)")
		storeMaxBytes = fs.Int64("store-max-bytes", 0, "store size budget; least-recently-used cells are evicted past it (0 = unlimited)")

		metricsOut = fs.String("metrics-out", "", "write the deterministic metrics snapshot (JSON) to this file")
		traceOut   = fs.String("trace-out", "", "write the Chrome trace-event timeline (JSON) to this file")
		eventsOut  = fs.String("events-out", "", "write the flat JSONL event log to this file")
		debugAddr  = fs.String("debug-addr", "", "serve the live metrics registry (expvar) and pprof on this address (e.g. localhost:6060)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "axmemo:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "axmemo:", err)
			}
		}()
	}

	// An observability sink is attached whenever any consumer asks for
	// one; otherwise everything stays nil and costs one check per event.
	var sink *obs.Sink
	if *metricsOut != "" || *traceOut != "" || *eventsOut != "" || *debugAddr != "" {
		sink = obs.NewSink()
	}
	if *debugAddr != "" {
		bound, closeDebug, err := obs.ServeDebug(*debugAddr, sink.Reg())
		if err != nil {
			return err
		}
		defer closeDebug()
		fmt.Fprintf(stderr, "axmemo: debug server on http://%s/debug/vars\n", bound)
	}
	writeArtifacts := func() error { return sink.WriteFiles(*metricsOut, *traceOut, *eventsOut) }

	// An attached result store turns repeated invocations (and runs that
	// share a directory with an axmemod daemon) into cache hits.
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, *storeMaxBytes); err != nil {
			return err
		}
		defer st.Close()
		st.Attach(sink)
	}

	if *figures != "" {
		if err := runFigures(stdout, sink, st, *figures, *scale, *parallel); err != nil {
			return err
		}
		return writeArtifacts()
	}

	if *list {
		fmt.Fprintf(stdout, "%-14s %-20s %-18s %s\n", "name", "domain", "memo input (bytes)", "truncated bits")
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%-14s %-20s %-18s %v\n", w.Name, w.Domain, w.InputBytes, w.TruncBits)
		}
		return nil
	}

	w, err := workloads.ByName(*benchName)
	if err != nil {
		return err
	}

	if *dump {
		prog := w.Build()
		if err := compiler.Transform(prog, w.Regions(nil)); err != nil {
			return err
		}
		fmt.Fprint(stdout, prog.Dump())
		return nil
	}

	if *manage != "" {
		if err := runManage(stdout, sink, st, *manage, w.Name, *scale, *manageEpochs, *manageLUTKB); err != nil {
			return err
		}
		return writeArtifacts()
	}

	cfg := harness.Config{Scale: *scale, Obs: sink}
	switch *mode {
	case "hw":
		cfg.Mode = harness.ModeHW
		cfg.L1KB = *l1
		cfg.L2KB = *l2
		cfg.Name = fmt.Sprintf("L1 (%dKB)", *l1)
		if *l2 > 0 {
			cfg.Name += fmt.Sprintf("+L2 (%dKB)", *l2)
		}
	case "soft":
		cfg.Mode = harness.ModeSoftLUT
		cfg.Name = "Software LUT"
	case "atm":
		cfg.Mode = harness.ModeATM
		cfg.Name = "ATM"
	default:
		return cli.Usagef("unknown mode %q (want hw, soft or atm)", *mode)
	}
	if *truncOff {
		cfg.Trunc = make([]uint8, len(w.TruncBits))
		cfg.Name += " no-approx"
	}
	cfg.GuardBudget = *guardBudget
	cfg.MaxCycles = *maxCycles

	if *faultRates != "" {
		if cfg.Mode != harness.ModeHW {
			return cli.Usagef("fault sweeps need -mode hw")
		}
		rates, err := parseRates(*faultRates)
		if err != nil {
			return err
		}
		if err := runFaultSweep(stdout, w, harness.FaultSweepConfig{
			Base:        cfg,
			Rates:       rates,
			Seed:        *faultSeed,
			GuardBudget: *guardBudget,
		}); err != nil {
			return err
		}
		return writeArtifacts()
	}

	var base, res *harness.Result
	if st != nil {
		// Route through a suite so both cells go through (and land in)
		// the result store; the store key ignores the obs fields, so
		// these cells are interchangeable with daemon-computed ones.
		s := harness.NewSuite(*scale)
		s.Obs = sink
		s.Store = st
		if base, err = s.Baseline(w); err != nil {
			return err
		}
		if res, err = s.Under(w, cfg); err != nil {
			return err
		}
	} else {
		baseCfg := harness.Baseline()
		baseCfg.Scale = *scale
		baseCfg.Obs = sink
		baseCfg.ObsPID = 1
		if base, err = harness.Run(w, baseCfg); err != nil {
			return err
		}
		cfg.ObsPID = 2
		if res, err = harness.Run(w, cfg); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "benchmark:     %s (%s)\n", w.Name, w.Domain)
	fmt.Fprintf(stdout, "configuration: %s, scale %d\n", cfg.Name, *scale)
	fmt.Fprintf(stdout, "baseline:      %d cycles, %d insns, %.3g pJ\n", base.Cycles, base.Insns, base.EnergyPJ)
	fmt.Fprintf(stdout, "memoized:      %d cycles, %d insns (%d memo), %.3g pJ\n",
		res.Cycles, res.Insns, res.MemoInsns, res.EnergyPJ)
	fmt.Fprintf(stdout, "speedup:       %.2fx\n", float64(base.Cycles)/float64(res.Cycles))
	fmt.Fprintf(stdout, "energy saving: %.2fx\n", base.EnergyPJ/res.EnergyPJ)
	fmt.Fprintf(stdout, "LUT hit rate:  %.1f%%\n", 100*res.HitRate)
	qname := "output error (E_r)"
	if w.Misclass {
		qname = "misclassification"
	}
	fmt.Fprintf(stdout, "%s: %.4f%%\n", qname, 100*res.Quality)
	if res.Monitor.Samples > 0 {
		fmt.Fprintf(stdout, "quality monitor: %d samples, mean rel err %.4f, disabled=%v\n",
			res.Monitor.Samples, res.Monitor.MeanError, res.Monitor.Disabled)
	}
	if res.Monitor.GuardDisables > 0 || res.Monitor.GuardBypassed > 0 {
		fmt.Fprintf(stdout, "quality guard:   %d trips, %d re-enables, %d lookups bypassed, %d permanent\n",
			res.Monitor.GuardDisables, res.Monitor.GuardReenables,
			res.Monitor.GuardBypassed, res.Monitor.GuardPermanent)
	}
	if n := res.Faults.Total(); n > 0 {
		fmt.Fprintf(stdout, "injected faults: %d\n", n)
	}
	return writeArtifacts()
}

// runFigures renders the requested evaluation figures, prewarming their
// deduplicated sweep cells on the scheduler's worker pool; cells present
// in st are served from disk instead of simulated.
func runFigures(stdout io.Writer, sink *obs.Sink, st *store.Store, ids string, scale, parallel int) error {
	known := harness.FigureIDs()
	var sel []string
	if !strings.EqualFold(ids, "all") {
		for _, id := range strings.Split(ids, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			for _, k := range known {
				if strings.EqualFold(id, k) {
					id = k
					break
				}
			}
			sel = append(sel, id)
		}
	}
	s := harness.NewSuite(scale)
	s.Parallel = parallel
	s.Obs = sink
	if st != nil {
		s.Store = st
	}
	figs, err := s.GenerateAll(sel...)
	if err != nil {
		return err
	}
	for _, fig := range figs {
		fmt.Fprintln(stdout, fig.String())
	}
	return nil
}

// runFaultSweep prints one table row per flip rate: injected-fault
// counts, LUT hit rate and mean relative output error, with a second
// column group when the quality guard is armed.
func runFaultSweep(stdout io.Writer, w *workloads.Workload, cfg harness.FaultSweepConfig) error {
	pts, err := harness.FaultSweep(w, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchmark:     %s (%s)\n", w.Name, w.Domain)
	fmt.Fprintf(stdout, "configuration: %s, fault seed %d\n", cfg.Base.Name, cfg.Seed)
	guarded := cfg.GuardBudget > 0
	if guarded {
		fmt.Fprintf(stdout, "guard budget:  %.2f%% mean relative error\n", 100*cfg.GuardBudget)
		fmt.Fprintf(stdout, "%-10s %8s %8s %10s | %8s %10s %6s\n",
			"flip rate", "faults", "hit rate", "mean err", "hit rate", "mean err", "trips")
	} else {
		fmt.Fprintf(stdout, "%-10s %8s %8s %10s\n", "flip rate", "faults", "hit rate", "mean err")
	}
	for _, pt := range pts {
		r := pt.Result
		fmt.Fprintf(stdout, "%-10.0e %8d %7.1f%% %9.4f%%", pt.Rate, r.Faults.Total(), 100*r.HitRate, 100*r.MeanError)
		if g := pt.Guarded; g != nil {
			fmt.Fprintf(stdout, " | %7.1f%% %9.4f%% %6d", 100*g.HitRate, 100*g.MeanError, g.Monitor.GuardDisables)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// parseRates parses a comma-separated list of flip rates.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, cli.Usagef("bad fault rate %q: %v", f, err)
		}
		rates = append(rates, r)
	}
	return rates, nil
}
