package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/workloads"
)

// figure_sweep: one operation is a cold Suite.GenerateAll of all 13
// scheduler figures on a fresh scale-1 suite with no store and a
// 2-worker pool — how axreport and axbench regenerate the paper's
// figures.  The simulator does nearly all the work.
//
// Checks: Fig7a and Fig9 of every sweep match the golden files byte
// for byte, and a digest of every cell's Result is identical across
// sweeps.

const sweepWorkers = 2

// goldenFigures are compared byte for byte after every sweep.
var goldenFigures = map[string]string{
	"Fig7a": "internal/harness/testdata/golden/fig7a.txt",
	"Fig9":  "internal/harness/testdata/golden/fig9.txt",
}

// sweepRun is what one run of figure_sweep accumulates.
type sweepRun struct {
	o      opts
	r      *report
	golden map[string]string
	cells  []harness.SweepCell
	digest string
	setups []float64
}

func figureSweep(o opts, r *report) error {
	sr := &sweepRun{o: o, r: r, golden: map[string]string{}}
	for id, path := range goldenFigures {
		b, err := os.ReadFile(filepath.FromSlash(path))
		if err != nil {
			return err
		}
		sr.golden[id] = string(b)
	}
	var err error
	if sr.cells, err = harness.SweepCells(); err != nil {
		return err
	}

	if !o.trace {
		w, err := sr.window(o.window, nil, o.ref)
		if err != nil {
			return err
		}
		if len(w.walls) == 0 {
			return fmt.Errorf("no sweep completed")
		}
		sr.e2e(w)
		fmt.Fprintf(o.log, "figure_sweep: %d sweeps, wall ms %.0f, reference kernel ms %.1f\n",
			len(w.walls), sweepLatencies(w.walls), w.b.around)
		return nil
	}

	// Traced run: half the window untraced, half traced.
	pw, err := sr.window(o.window/2, nil, nil)
	if err != nil {
		return err
	}
	plain := pw.walls
	pw.start.report(r, len(plain))
	tl := newSpanLog()
	tw, err := sr.window(o.window/2, tl, nil)
	if err != nil {
		return err
	}
	traced, last := tw.walls, tw.last
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("no sweep completed")
	}
	tails(r, pcts(sweepLatencies(plain)))
	overhead(r, pcts(sweepLatencies(plain)), pcts(sweepLatencies(traced)),
		sweepThroughput(sr, plain), sweepThroughput(sr, traced))
	sr.layers(tl, last)
	if err := memoCounts(sr, r); err != nil {
		return err
	}
	if err := layerProbes(tl, r); err != nil {
		return err
	}
	if err := hitProbe(tl, r, last, sr.cells, o.seed); err != nil {
		return err
	}
	return writeSpans(tl, "figure_sweep", o)
}

// sweepWindow is one window of cold sweeps.
type sweepWindow struct {
	walls []time.Duration // of the sweeps that passed their checks
	b     *bracket        // the kernel timings around each of them
	start goStats         // Go runtime counters at the window's start
	last  *harness.Suite
}

// window runs cold sweeps until d has passed (at least three).  With
// ref set it times the host-speed reference kernel before every sweep
// and after the last, where no part of the program runs (calib.go).
func (sr *sweepRun) window(d time.Duration, tl *spanLog, ref *hostRef) (sweepWindow, error) {
	w := sweepWindow{start: readGoStats()}
	if ref != nil {
		w.b = &bracket{ref: ref}
	}
	end := time.Now().Add(d)
	for tries := 0; time.Now().Before(end) || (len(w.walls) < 3 && tries < 6); tries++ {
		if err := w.b.tick(); err != nil {
			return w, err
		}
		s, wall, ok := sr.sweep(tl, uint64(len(sr.setups)))
		if ok {
			w.walls = append(w.walls, wall)
			w.last = s
			w.b.add()
		}
	}
	return w, w.b.tick()
}

// sweep runs one cold sweep and checks its outputs.
func (sr *sweepRun) sweep(tl *spanLog, req uint64) (*harness.Suite, time.Duration, bool) {
	// Set-up is what precedes the first simulation: building the suite
	// and enumerating the deduplicated cells of the 13 figures.
	var s *harness.Suite
	var err error
	sr.setups = append(sr.setups, timeIt(func() {
		s = harness.NewSuite(1)
		s.Parallel = sweepWorkers
		_, err = harness.SweepCells()
	}).Seconds())
	var root openSpan
	if tl != nil {
		root = tl.start("sweep", req+1, 0, 0)
		s.Remote = tracedSweepCell(tl, req+1, root.s.ID)
	}
	sr.r.Attempted++
	var figs []*harness.Figure
	start := time.Now()
	if err == nil {
		figs, err = s.GenerateAll()
	}
	wall := time.Since(start)
	root.finish()
	if err == nil {
		err = sr.check(s, figs)
	}
	if err != nil {
		sr.r.Failed++
		sr.r.Correct = false
		fmt.Fprintf(sr.o.log, "figure_sweep: sweep %d: %v\n", req, err)
		return nil, 0, false
	}
	return s, wall, true
}

// check compares the golden figures and the cell digest.
func (sr *sweepRun) check(s *harness.Suite, figs []*harness.Figure) error {
	seen := 0
	for _, f := range figs {
		want, ok := sr.golden[f.ID]
		if !ok {
			continue
		}
		seen++
		if got := f.String(); got != want {
			return fmt.Errorf("%s differs from its golden file", f.ID)
		}
	}
	if seen != len(sr.golden) {
		return fmt.Errorf("sweep rendered %d of %d golden figures", seen, len(sr.golden))
	}
	h := sha256.New()
	for _, c := range sr.cells {
		res, _, err := s.RunCell(c)
		if err != nil {
			return err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		h.Write(b)
	}
	d := hex.EncodeToString(h.Sum(nil))
	if sr.digest == "" {
		sr.digest = d
	} else if d != sr.digest {
		return fmt.Errorf("cell results digest %.12s differs from the first sweep's %.12s", d, sr.digest)
	}
	return nil
}

func sweepLatencies(walls []time.Duration) []float64 {
	out := make([]float64, len(walls))
	for i, w := range walls {
		out[i] = ms(w)
	}
	return out
}

func sweepThroughput(sr *sweepRun, walls []time.Duration) float64 {
	return float64(len(sr.cells)) / (median(sweepLatencies(walls)) / 1000)
}

// e2e reports figure_sweep's end-to-end metrics.  One operation, and
// one slice, is one sweep: p50_ms is the median of the sweeps' wall
// times, each carried to the run's median host speed (bracket); main
// then scales the run to the reference speed.
func (sr *sweepRun) e2e(w sweepWindow) {
	sweep := median(w.b.carry(sweepLatencies(w.walls), false))
	sr.r.set("p50_ms", sweep, "ms")
	sr.r.set("cells_per_s", float64(len(sr.cells))/(sweep/1000), "1/s")
	sr.r.set("setup_s", median(sr.setups), "s")
	sr.r.set("peak_rss_mb", peakRSSMB(), "MB")
}

// tracedSweepCell is the sweep suite's remote tier in traced runs: it
// runs each cell exactly as the suite's store-less local path would
// (harness.Run), timing the cell and the simulation.  Two lanes, one
// per scheduler worker.
func tracedSweepCell(tl *spanLog, req, parent uint64) func(harness.SweepCell) (*harness.Result, bool, bool) {
	lanes := make(chan int, sweepWorkers)
	for i := 1; i <= sweepWorkers; i++ {
		lanes <- i
	}
	return func(c harness.SweepCell) (*harness.Result, bool, bool) {
		w, err := workloads.ByName(c.Workload)
		if err != nil {
			return nil, false, false
		}
		lane := <-lanes
		defer func() { lanes <- lane }()
		cs := tl.start("harness.cell", req, parent, lane)
		run := tl.start("sim.run", req, cs.s.ID, lane)
		res, err := harness.Run(w, c.Config)
		rs := run.finish()
		cs.finish()
		if err != nil {
			return nil, false, false // the suite's local tier reproduces the error
		}
		tl.addSim(rs.dur(), res.Insns)
		return res, true, true
	}
}

// layers reports figure_sweep's per-layer metrics from the spans.
func (sr *sweepRun) layers(tl *spanLog, last *harness.Suite) {
	spans, kids := tl.snapshot()
	cellMS := durMS(spans, "harness.cell")
	sr.r.set("harness.cell_ms.p50", quantile(cellMS, 0.5), "ms")
	sr.r.set("harness.cell_ms.p90", quantile(cellMS, 0.9), "ms")
	var busy []float64
	for _, s := range spans {
		if s.Name != "sweep" {
			continue
		}
		var cellsWall time.Duration
		for _, k := range kids[s.ID] {
			cellsWall += k.dur()
		}
		busy = append(busy, float64(cellsWall)/float64(sweepWorkers*s.dur()))
	}
	sr.r.set("harness.pool_busy", median(busy), "ratio")
	runMS := durMS(spans, "sim.run")
	sr.r.set("sim.run_ms.p50", quantile(runMS, 0.5), "ms")
	sr.r.set("sim.run_ms.p90", quantile(runMS, 0.9), "ms")
	if insns := tl.simInsns.Load(); insns > 0 {
		sr.r.set("sim.ns_per_insn", float64(tl.simNs.Load())/float64(insns), "ns")
	}
	var insns uint64
	var hit []float64
	for _, c := range sr.cells {
		res, _, err := last.RunCell(c)
		if err != nil {
			continue
		}
		insns += res.Insns
		if res.Mode != harness.ModeBaseline {
			hit = append(hit, res.HitRate)
		}
	}
	sr.r.set("sim.insns", float64(insns), "count")
	sr.r.set("memo.hit_rate", mean(hit), "ratio")
}

// memoCounts reports memo.lookups: the memoization units' lookups over
// one whole sweep, read from an obs sink on an extra, untimed sweep.
func memoCounts(sr *sweepRun, r *report) error {
	s := harness.NewSuite(1)
	s.Parallel = sweepWorkers
	s.Obs = obs.NewSink()
	if _, err := s.GenerateAll(); err != nil {
		return err
	}
	snap, err := obs.ParseSnapshot(s.Obs.Reg().SnapshotJSON(obs.Deterministic))
	if err != nil {
		return err
	}
	r.set("memo.lookups", snap.Family("memo_events_total").SumValues(map[string]string{"event": "lookup"}), "count")
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
