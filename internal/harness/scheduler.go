package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"axmemo/internal/obs"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

// This file is the concurrent sweep scheduler: every figure of the
// evaluation is a workload × configuration sweep whose cells are
// independent, deterministic simulations.  The scheduler enumerates the
// cells a set of figures needs up front, deduplicates the shared ones
// (baselines and the standard LUT sweep appear in Fig7a/7b/8/9/10a), and
// executes them on a bounded worker pool.  The Suite's in-flight map
// guarantees each simulation runs exactly once even when workers and
// figure generators race for it, and — because every run carries all of
// its state (RNG seeds, fault plans, memoization units) — the rendered
// figures are byte-identical to a serial sweep (asserted by
// TestParallelSweepMatchesSerial).

// SweepCell names one simulation of the evaluation sweep.
type SweepCell struct {
	// Workload is the benchmark name (resolved per worker so that
	// concurrent cells never share one Workload instance).
	Workload string
	// Config is the harness configuration; ignored when Baseline.
	Config Config
	// Baseline marks the unmemoized run.
	Baseline bool
}

// ConfigName is the name of the cell's configuration ("Baseline" for
// the unmemoized run).
func (c SweepCell) ConfigName() string {
	if c.Baseline {
		return Baseline().Name
	}
	return c.Config.Name
}

// key returns the cell's name coordinates, by which SweepCells
// deduplicates (the store keys cells by Suite.CellKey).
func (c SweepCell) key() cellKey {
	return cellKey{workload: c.Workload, config: c.ConfigName()}
}

// FigureIDs lists every sweep-driven artifact the scheduler understands,
// in report order.
func FigureIDs() []string {
	return []string{
		"Fig7a", "Fig7b", "Fig8", "Fig9", "Fig10a", "Fig10b", "Fig11",
		"ATM", "SENS", "ABL-CRC", "ABL-ADAPT", "ABL-RATE", "ENERGY",
	}
}

// SweepCells enumerates the deduplicated simulation cells needed by the
// given figures (all of FigureIDs when empty), in deterministic order.
func SweepCells(figIDs ...string) ([]SweepCell, error) {
	if len(figIDs) == 0 {
		figIDs = FigureIDs()
	}
	seen := make(map[cellKey]bool)
	var cells []SweepCell
	for _, id := range figIDs {
		fc, err := cellsForFigure(id)
		if err != nil {
			return nil, err
		}
		for _, c := range fc {
			if k := c.key(); !seen[k] {
				seen[k] = true
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// cellsForFigure mirrors the corresponding figure generator's sweep.
// Each generator builds its configurations through the same shared
// constructors (StandardConfigs, fig11NoApproxConfig, …), so the
// enumeration cannot drift from what rendering will request.
func cellsForFigure(id string) ([]SweepCell, error) {
	all := workloads.All()
	var cells []SweepCell
	base := func(w *workloads.Workload) {
		cells = append(cells, SweepCell{Workload: w.Name, Baseline: true})
	}
	under := func(w *workloads.Workload, cfgs ...Config) {
		for _, cfg := range cfgs {
			cells = append(cells, SweepCell{Workload: w.Name, Config: cfg})
		}
	}
	switch id {
	case "Fig7a", "Fig7b", "Fig8", "Fig9", "Fig10a":
		for _, w := range all {
			base(w)
			under(w, StandardConfigs()...)
		}
	case "Fig10b":
		for _, w := range all {
			if w.Misclass {
				continue
			}
			under(w, BestConfig())
		}
	case "Fig11":
		for _, w := range all {
			base(w)
			under(w, BestConfig(), fig11NoApproxConfig(w))
		}
	case "ATM":
		for _, w := range all {
			base(w)
			under(w, atmConfig(), BestConfig())
		}
	case "SENS":
		big, small := l2SensitivityConfigs()
		for _, w := range all {
			under(w, big, small)
		}
	case "ABL-CRC":
		for _, name := range ablCRCWidthNames {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			for _, width := range ablCRCWidths {
				under(w, crcWidthConfig(width))
			}
		}
	case "ABL-ADAPT":
		for _, name := range ablAdaptiveNames {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			under(w, BestConfig(), adaptiveConfig(w), fig11NoApproxConfig(w))
		}
	case "ABL-RATE":
		for _, name := range ablCRCRateNames {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			under(w, serialCRCConfig(), BestConfig())
		}
	case "ENERGY":
		for _, name := range energyBreakdownNames {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			base(w)
			under(w, BestConfig())
		}
	default:
		return nil, fmt.Errorf("harness: unknown figure %q (have %v)", id, FigureIDs())
	}
	return cells, nil
}

// workers resolves the effective pool size: explicit > 0 wins, then the
// suite's Parallel setting, then one worker per available CPU.
func (s *Suite) workers(n int) int {
	if n <= 0 {
		n = s.Parallel
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// Prewarm executes every cell the named figures need (all figures when
// none are named) on a pool of n workers (0 = Suite.Parallel, then
// GOMAXPROCS) and leaves their results in the suite's store.  Cells
// are independent simulations, so all of them are attempted even if
// one fails; the error of the first failed cell is returned.
func (s *Suite) Prewarm(n int, figIDs ...string) error {
	_, err := s.prewarm(n, figIDs...)
	return err
}

// prewarm is Prewarm, also returning the results it produced so the
// figures of the same sweep render without reading the store.
func (s *Suite) prewarm(n int, figIDs ...string) (swept, error) {
	got := swept{s: s, res: make(map[store.Key]*Result)}
	cells, err := SweepCells(figIDs...)
	if err != nil {
		return got, err
	}
	// Pre-assign every cell's trace process lane in enumeration order,
	// before any worker races for them: parallel and serial sweeps then
	// emit identical timelines.
	if s.Obs.Tracer() != nil {
		for _, c := range cells {
			s.pidFor(s.CellKey(c))
		}
	}
	tele := s.newSweepTelemetry(len(cells))
	done := make([]*flight, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := min(s.workers(n), len(cells)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				done[i], errs[i] = tele.run(s, cells[i])
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, f := range done {
		if errs[i] != nil {
			if err == nil {
				err = errs[i]
			}
			continue
		}
		got.res[f.key] = f.res
	}
	return got, err
}

// sweepTelemetry is the scheduler's own instrumentation: scheduled-cell
// counts are deterministic, while wall time and queue depth depend on
// host load and pool size and therefore live in Volatile families that
// the deterministic snapshot excludes.
type sweepTelemetry struct {
	wall  *obs.Histogram
	depth *obs.Gauge
}

func (s *Suite) newSweepTelemetry(cells int) *sweepTelemetry {
	t := &sweepTelemetry{}
	if reg := s.Obs.Reg(); reg != nil {
		reg.NewCounter("harness_sweep_cells_total",
			obs.Opts{Help: "sweep cells scheduled by Prewarm"}).Add(uint64(cells))
		t.wall = reg.NewHistogram("harness_cell_wall_seconds",
			obs.Opts{Help: "per-cell wall time", Volatile: true,
				Buckets: []float64{0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10, 30, 60}})
		t.depth = reg.NewGauge("harness_queue_depth",
			obs.Opts{Help: "sweep cells not yet completed", Volatile: true})
		t.depth.Set(float64(cells))
	}
	return t
}

// run executes one cell and records the scheduler telemetry around it
// (all metric methods are nil-safe, so a sink-less suite pays nothing).
// The cell's workload is resolved fresh rather than shared across
// cells: a Workload's closures may keep per-instance state, so two
// concurrent simulations must never run off the same instance.
func (t *sweepTelemetry) run(s *Suite, c SweepCell) (*flight, error) {
	start := time.Now()
	f, _, err := s.sweepCell(c)
	t.wall.Observe(time.Since(start).Seconds())
	t.depth.Add(-1)
	return f, err
}

// figureGens renders each sweep figure from its cells.
var figureGens = map[string]func(results) (*Figure, error){
	"Fig7a":     fig7a,
	"Fig7b":     fig7b,
	"Fig8":      fig8,
	"Fig9":      fig9,
	"Fig10a":    fig10a,
	"Fig10b":    fig10b,
	"Fig11":     fig11,
	"ATM":       atmComparison,
	"SENS":      l2Sensitivity,
	"ABL-CRC":   ablationCRCWidth,
	"ABL-ADAPT": ablationAdaptive,
	"ABL-RATE":  ablationCRCRate,
	"ENERGY":    energyBreakdown,
}

// Figure renders one artifact by scheduler ID, reading its cells
// through the suite (the store, or a run for a cell it lacks).
func (s *Suite) Figure(id string) (*Figure, error) {
	return figure(id, s)
}

func figure(id string, r results) (*Figure, error) {
	gen, ok := figureGens[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown figure %q (have %v)", id, FigureIDs())
	}
	return gen(r)
}

// Generate prewarms one figure's sweep on the parallel pool, then
// renders it from the results that sweep produced.
func (s *Suite) Generate(id string) (*Figure, error) {
	got, err := s.prewarm(0, id)
	if err != nil {
		return nil, err
	}
	return figure(id, got)
}

// GenerateAll prewarms every named figure's sweep at once — maximizing
// cross-figure cell sharing — then renders them in order from the
// results that sweep produced (all of FigureIDs when none are named).
func (s *Suite) GenerateAll(figIDs ...string) ([]*Figure, error) {
	if len(figIDs) == 0 {
		figIDs = FigureIDs()
	}
	got, err := s.prewarm(0, figIDs...)
	if err != nil {
		return nil, err
	}
	figs := make([]*Figure, 0, len(figIDs))
	for _, id := range figIDs {
		fig, err := figure(id, got)
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}
