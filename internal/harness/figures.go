package harness

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"axmemo/internal/cpu"
	"axmemo/internal/memo"
	"axmemo/internal/obs"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

// Figure is one reproduced table or figure, as rows of text cells.
type Figure struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders an aligned text table.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	widths := make([]int, len(f.Header))
	for i, h := range f.Header {
		widths[i] = len(h)
	}
	for _, row := range f.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(f.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range f.Rows {
		line(row)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Bars renders one column of the figure as a horizontal ASCII bar chart,
// scaled to the column's maximum.  Cells are parsed as leading floats
// ("2.42x", "67.17%"); unparsable rows are skipped.
func (f *Figure) Bars(col int, width int) string {
	if width <= 0 {
		width = 40
	}
	type bar struct {
		label string
		v     float64
	}
	var bars []bar
	maxV := 0.0
	for _, row := range f.Rows {
		if col >= len(row) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(row[col], "%f", &v); err != nil {
			continue
		}
		bars = append(bars, bar{row[0], v})
		if v > maxV {
			maxV = v
		}
	}
	if len(bars) == 0 || maxV == 0 {
		return ""
	}
	labelW := 0
	for _, b := range bars {
		if len(b.label) > labelW {
			labelW = len(b.label)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s [%s]\n", f.ID, f.Title, f.Header[col])
	for _, b := range bars {
		n := int(b.v / maxV * float64(width))
		fmt.Fprintf(&sb, "%-*s | %-*s %.3g\n", labelW, b.label, width, strings.Repeat("#", n), b.v)
	}
	return sb.String()
}

// Suite runs the cells of the evaluation sweep so that multiple figures
// share them.  A finished cell lives only in the suite's result store,
// keyed by its store key (CellStoreKey); the suite itself keeps a cell
// only while its run is in flight, so every cell is executed once even
// when the parallel sweep scheduler (scheduler.go) and figure
// generators race for it.  Safe for concurrent use.
type Suite struct {
	Scale int
	// Parallel bounds the scheduler's worker pool (0 = GOMAXPROCS, 1 =
	// serial).  Cell results are independent of this setting — each
	// simulation carries all of its state (RNG seeds, fault plans, memo
	// units) per Run, so only wall-clock changes.
	Parallel int
	// Obs, if non-nil, collects every cell's metrics and timeline
	// events.  Deterministic families stay byte-identical between serial
	// and parallel sweeps: counters are additive, per-run gauges have one
	// writer, trace process lanes are pre-assigned in enumeration order
	// when the sink has a tracer (pidFor), and the racy scheduler
	// telemetry is Volatile.
	Obs *obs.Sink
	// Store holds every finished cell.  NewSuite attaches a memory-only
	// store; point it at a store opened on a directory to reuse cells
	// other processes computed (the axmemod daemon, earlier CLI runs)
	// byte-identically instead of recomputing them.  Must not be nil.
	Store *store.Store
	// Remote, if non-nil, is consulted after the store but before the
	// simulator: a cluster coordinator forwards the cell to its owning
	// peer here.  ok=false means "not handled" (no owner, owner dead,
	// retries exhausted) and the cell is simulated locally — degraded,
	// never down.  Because every cell is a pure function of its
	// content-addressed key, a remote result is byte-identical to a
	// local recompute.  The delegate receives the fully resolved cell
	// (baseline expanded, Scale set, obs cleared from the wire by the
	// caller's own serialization).  executed reports whether the remote
	// peer ran the simulation for this call (false = it answered from
	// its cache), keeping the API's cached flag truthful across the
	// cluster.
	Remote func(c SweepCell) (res *Result, executed, ok bool)

	// engine is every cell's execution engine (see Config.engine).
	engine cpu.Engine

	mu       sync.Mutex
	inflight map[store.Key]*flight
	cellPID  map[store.Key]int
	nextPID  int
}

// cellKey names a cell by workload and configuration name: SweepCells
// deduplicates the figures' shared cells (baselines, the standard LUT
// sweep) by it.  The store keys cells by their store key.
type cellKey struct {
	workload string
	config   string
}

// flight is one cell run in progress: whichever caller arrives first
// runs it, and everyone arriving while it runs waits on done and shares
// its outcome.  It leaves Suite.inflight when the run ends, after its
// result was written to the store; a failed run leaves nothing behind.
type flight struct {
	done chan struct{}
	key  store.Key
	res  *Result
	err  error
}

// NewSuite prepares a suite at the given input scale over a
// memory-only store.
func NewSuite(scale int) *Suite {
	if scale <= 0 {
		scale = 1
	}
	st, _ := store.Open("", 0) // a memory-only store has nothing to fail on
	return &Suite{
		Scale:    scale,
		Store:    st,
		inflight: make(map[store.Key]*flight),
		cellPID:  make(map[store.Key]int),
		nextPID:  1, // lane 0 is the harness/scheduler itself
	}
}

// pidFor returns the cell's stable trace process lane, assigning the
// next one on first request.  Only traced suites assign lanes; Prewarm
// pre-assigns every enumerated cell before its workers start, so lanes
// are identical between serial and parallel sweeps.
func (s *Suite) pidFor(key store.Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pid, ok := s.cellPID[key]; ok {
		return pid
	}
	pid := s.nextPID
	s.nextPID++
	s.cellPID[key] = pid
	return pid
}

// runCell runs (or reads) the cell of w under cfg.
func (s *Suite) runCell(w *workloads.Workload, cfg Config, baseline bool) (*Result, error) {
	f, _ := s.cell(w, cfg, baseline)
	return f.res, f.err
}

// cell runs (or waits for) the cell of w under cfg and reports whether
// THIS call executed the simulation (false = served from the store, the
// remote tier's cache, or another caller's flight).  The cell is keyed
// by its store key, derived once Scale is set, so two configurations
// that share a name never share a cell.
func (s *Suite) cell(w *workloads.Workload, cfg Config, baseline bool) (f *flight, executed bool) {
	cfg.Scale = s.Scale
	key := CellStoreKey(w.Name, cfg)
	cfg.engine = s.engine
	cfg.Obs = s.Obs
	if s.Obs.Tracer() != nil {
		cfg.ObsPID = s.pidFor(key)
	}
	s.mu.Lock()
	if f := s.inflight[key]; f != nil {
		s.mu.Unlock()
		<-f.done
		return f, false
	}
	f = &flight{done: make(chan struct{}), key: key}
	s.inflight[key] = f
	s.mu.Unlock()

	f.res, executed, f.err = s.fill(w, cfg, baseline, key)
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(f.done)
	return f, executed
}

// Baseline runs (or reads) the unmemoized configuration.
func (s *Suite) Baseline(w *workloads.Workload) (*Result, error) {
	return s.runCell(w, Baseline(), true)
}

// Under runs (or reads) one configuration.
func (s *Suite) Under(w *workloads.Workload, cfg Config) (*Result, error) {
	return s.runCell(w, cfg, false)
}

// results is what a figure reads its cells from: the suite itself, or
// the results one Prewarm produced (swept).
type results interface {
	Baseline(w *workloads.Workload) (*Result, error)
	Under(w *workloads.Workload, cfg Config) (*Result, error)
}

// swept is the results one Prewarm produced, by store key.  A figure
// rendered from it decodes nothing; a cell the sweep did not produce is
// read through the suite.
type swept struct {
	s   *Suite
	res map[store.Key]*Result
}

func (v swept) Baseline(w *workloads.Workload) (*Result, error) {
	return v.get(w, Baseline(), true)
}

func (v swept) Under(w *workloads.Workload, cfg Config) (*Result, error) {
	return v.get(w, cfg, false)
}

func (v swept) get(w *workloads.Workload, cfg Config, baseline bool) (*Result, error) {
	cfg.Scale = v.s.Scale
	if r, ok := v.res[CellStoreKey(w.Name, cfg)]; ok {
		return r, nil
	}
	return v.s.runCell(w, cfg, baseline)
}

func f2x(v float64) string { return fmt.Sprintf("%.2fx", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// perConfigFigure sweeps workloads × configs and formats cell(result,
// baseline) per cell, with an average row.
func perConfigFigure(s results, id, title string, configs []Config,
	cell func(r, base *Result) (string, float64)) (*Figure, error) {
	fig := &Figure{ID: id, Title: title, Header: []string{"benchmark"}}
	for _, c := range configs {
		fig.Header = append(fig.Header, c.Name)
	}
	sums := make([][]float64, len(configs))
	for _, w := range workloads.All() {
		base, err := s.Baseline(w)
		if err != nil {
			return nil, err
		}
		row := []string{w.Name}
		for ci, c := range configs {
			r, err := s.Under(w, c)
			if err != nil {
				return nil, err
			}
			text, val := cell(r, base)
			row = append(row, text)
			sums[ci] = append(sums[ci], val)
		}
		fig.Rows = append(fig.Rows, row)
	}
	avg := []string{"average"}
	for ci := range configs {
		avg = append(avg, fmt.Sprintf("%.4g", mean(sums[ci])))
	}
	fig.Rows = append(fig.Rows, avg)
	return fig, nil
}

// fig7a reproduces Fig. 7a: whole-application speedup per LUT
// configuration, normalized to the unmemoized baseline.
func fig7a(s results) (*Figure, error) {
	fig, err := perConfigFigure(s, "Fig7a", "speedup over baseline (higher is better)",
		StandardConfigs(), func(r, base *Result) (string, float64) {
			v := float64(base.Cycles) / float64(r.Cycles)
			return f2x(v), v
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, "paper: 1.40x avg for L1(4KB), 2.82x avg for L1(8KB)+L2(512KB), 0.94x for software LUT")
	return fig, nil
}

// fig7b reproduces Fig. 7b: energy saving E_baseline/E_config.
func fig7b(s results) (*Figure, error) {
	fig, err := perConfigFigure(s, "Fig7b", "energy saving over baseline (higher is better)",
		StandardConfigs(), func(r, base *Result) (string, float64) {
			v := base.EnergyPJ / r.EnergyPJ
			return f2x(v), v
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, "paper: 1.37x avg for L1(4KB), 2.72x avg for L1(8KB)+L2(512KB), ~1x for software LUT")
	return fig, nil
}

// fig8 reproduces Fig. 8: normalized dynamic instruction count, with the
// memoization-instruction share in parentheses.
func fig8(s results) (*Figure, error) {
	fig, err := perConfigFigure(s, "Fig8", "dynamic instructions normalized to baseline (memo share in parens)",
		StandardConfigs(), func(r, base *Result) (string, float64) {
			norm := float64(r.Insns) / float64(base.Insns)
			share := float64(r.MemoInsns) / float64(base.Insns)
			return fmt.Sprintf("%.3f (%.3f)", norm, share), norm
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper: 20.0% reduction for L1(4KB), 50.1% for L1(8KB)+L2(512KB); software implementation ~2x increase")
	return fig, nil
}

// fig9 reproduces Fig. 9: total LUT hit rate per configuration.
func fig9(s results) (*Figure, error) {
	fig, err := perConfigFigure(s, "Fig9", "LUT hit rate",
		StandardConfigs(), func(r, base *Result) (string, float64) {
			return pct(r.HitRate), r.HitRate
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, "paper: 37.1% avg for L1(4KB), 76.1% for L1(8KB)+L2(512KB), 81.1% software LUT")
	return fig, nil
}

// fig10a reproduces Fig. 10a: whole-application quality loss per
// configuration (E_r, or misclassification rate for jmeint).
func fig10a(s results) (*Figure, error) {
	fig, err := perConfigFigure(s, "Fig10a", "output quality loss (E_r; misclassification for jmeint)",
		StandardConfigs(), func(r, base *Result) (string, float64) {
			return fmt.Sprintf("%.4f%%", 100*r.Quality), r.Quality
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper: average output error below 1% in all configurations; software LUT higher due to collisions")
	return fig, nil
}

// fig11NoApproxConfig is Fig. 11's approximation-disabled run for w:
// exact memoization only (also ABL-ADAPT's no-approx column).
func fig11NoApproxConfig(w *workloads.Workload) Config {
	cfg := BestConfig()
	cfg.Name = "L1 (8KB)+L2 (512KB) no-approx"
	cfg.Trunc = make([]uint8, len(w.TruncBits))
	return cfg
}

// atmConfig is the §6.2 prior-work runtime configuration.
func atmConfig() Config { return Config{Name: "ATM", Mode: ModeATM} }

// l2SensitivityConfigs returns the §6.2 sensitivity pair: a 256KB L2 LUT
// over the default 1MB shared L2 and over a 512KB one.
func l2SensitivityConfigs() (big, small Config) {
	big = HW("L1 (8KB)+L2 (256KB)", 8, 256)
	small = HW("L1 (8KB)+L2 (256KB) @512KB-L2", 8, 256)
	small.TotalL2CacheKB = 512
	return big, small
}

// fig10b reproduces Fig. 10b: the CDF of element-wise relative error at
// the largest configuration, sampled at fixed error points (read from
// the BestConfig cell the other figures share).
func fig10b(s results) (*Figure, error) {
	fig := &Figure{
		ID:     "Fig10b",
		Title:  "CDF of element-wise relative error, L1(8KB)+L2(512KB)",
		Header: []string{"benchmark"},
	}
	for _, p := range errorCDFPoints {
		fig.Header = append(fig.Header, fmt.Sprintf("≤%.0e", p))
	}
	for _, w := range workloads.All() {
		if w.Misclass {
			continue // boolean outputs have no element-wise error CDF
		}
		r, err := s.Under(w, BestConfig())
		if err != nil {
			return nil, err
		}
		row := []string{w.Name}
		for _, v := range r.ErrorCDF {
			row = append(row, pct(v))
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// fig11 reproduces Fig. 11: speedup and energy saving with the Table 2
// truncation versus with approximation disabled, both on the largest
// configuration.
func fig11(s results) (*Figure, error) {
	fig := &Figure{
		ID:    "Fig11",
		Title: "effect of approximation (input truncation), L1(8KB)+L2(512KB)",
		Header: []string{"benchmark", "speedup w/ approx", "speedup w/o approx",
			"energy w/ approx", "energy w/o approx", "hit w/", "hit w/o"},
	}
	var hitW, hitWo []float64
	for _, w := range workloads.All() {
		base, err := s.Baseline(w)
		if err != nil {
			return nil, err
		}
		with, err := s.Under(w, BestConfig())
		if err != nil {
			return nil, err
		}
		without, err := s.Under(w, fig11NoApproxConfig(w))
		if err != nil {
			return nil, err
		}
		fig.Rows = append(fig.Rows, []string{
			w.Name,
			f2x(float64(base.Cycles) / float64(with.Cycles)),
			f2x(float64(base.Cycles) / float64(without.Cycles)),
			f2x(base.EnergyPJ / with.EnergyPJ),
			f2x(base.EnergyPJ / without.EnergyPJ),
			pct(with.HitRate),
			pct(without.HitRate),
		})
		hitW = append(hitW, with.HitRate)
		hitWo = append(hitWo, without.HitRate)
	}
	fig.Rows = append(fig.Rows, []string{"average", "", "", "", "", pct(mean(hitW)), pct(mean(hitWo))})
	fig.Notes = append(fig.Notes,
		"paper: disabling approximation drops average hit rate from 76.1% to 47.2%; JPEG, Sobel and SRAD lose their gains")
	return fig, nil
}

// atmComparison reproduces the §6.2 prior-work comparison.
func atmComparison(s results) (*Figure, error) {
	fig := &Figure{
		ID:     "ATM",
		Title:  "comparison with Approximate Task Memoization (software prior work)",
		Header: []string{"benchmark", "ATM speedup", "ATM hit rate", "AxMemo speedup"},
	}
	var atmSp []float64
	for _, w := range workloads.All() {
		base, err := s.Baseline(w)
		if err != nil {
			return nil, err
		}
		atmRes, err := s.Under(w, atmConfig())
		if err != nil {
			return nil, err
		}
		hw, err := s.Under(w, BestConfig())
		if err != nil {
			return nil, err
		}
		sp := float64(base.Cycles) / float64(atmRes.Cycles)
		atmSp = append(atmSp, sp)
		fig.Rows = append(fig.Rows, []string{
			w.Name, f2x(sp), pct(atmRes.HitRate),
			f2x(float64(base.Cycles) / float64(hw.Cycles)),
		})
	}
	fig.Rows = append(fig.Rows, []string{"geomean", f2x(geomean(atmSp)), "", ""})
	fig.Notes = append(fig.Notes,
		"paper: ATM speeds up only blackscholes (5.8x), fft (2.6x), inversek2j (1.3x) and k-means (1.3x); geomean 0.8x")
	return fig, nil
}

// l2Sensitivity reproduces the §6.2 study: shrink the shared L2 cache
// from 1MB to 512KB while keeping a 256KB L2 LUT, and report the
// performance degradation of the memoized configuration.
func l2Sensitivity(s results) (*Figure, error) {
	fig := &Figure{
		ID:     "SENS",
		Title:  "sensitivity to total L2 size (256KB L2 LUT; 1MB vs 512KB shared L2)",
		Header: []string{"benchmark", "cycles @1MB", "cycles @512KB", "degradation"},
	}
	var degs []float64
	bigCfg, smallCfg := l2SensitivityConfigs()
	for _, w := range workloads.All() {
		big, err := s.Under(w, bigCfg)
		if err != nil {
			return nil, err
		}
		small, err := s.Under(w, smallCfg)
		if err != nil {
			return nil, err
		}
		deg := float64(small.Cycles)/float64(big.Cycles) - 1
		degs = append(degs, deg)
		fig.Rows = append(fig.Rows, []string{
			w.Name,
			fmt.Sprintf("%d", big.Cycles),
			fmt.Sprintf("%d", small.Cycles),
			pct(deg),
		})
	}
	fig.Rows = append(fig.Rows, []string{"average", "", "", pct(mean(degs))})
	fig.Notes = append(fig.Notes, "paper: 0.44% average degradation, 1.55% worst (hotspot)")
	return fig, nil
}

// Table2 reproduces Table 2's configuration columns.
func Table2() *Figure {
	fig := &Figure{
		ID:     "Table2",
		Title:  "evaluated benchmarks",
		Header: []string{"benchmark", "domain", "description", "memo input (bytes)", "truncated bits"},
	}
	for _, w := range workloads.All() {
		tr := make([]string, len(w.TruncBits))
		for i, t := range w.TruncBits {
			tr[i] = fmt.Sprintf("%d", t)
		}
		fig.Rows = append(fig.Rows, []string{
			w.Name, w.Domain, w.Description, w.InputBytes, strings.Join(tr, ", "),
		})
	}
	return fig
}

// Table4 reproduces the ISA-extension timing parameters as modeled.
func Table4() *Figure {
	mc := memo.DefaultConfig()
	fig := &Figure{
		ID:     "Table4",
		Title:  "timing parameters of the AxMemo ISA extensions (as modeled)",
		Header: []string{"instruction", "latency"},
	}
	fig.Rows = [][]string{
		{"ld_crc dst,[addr],LUT_ID,n", fmt.Sprintf("load latency; CRC unit absorbs %d B/cycle in the background", mc.CRCBytesPerCycle)},
		{"reg_crc src,LUT_ID,n", fmt.Sprintf("1 cycle issue; CRC unit absorbs %d B/cycle in the background", mc.CRCBytesPerCycle)},
		{"lookup dst,LUT_ID", fmt.Sprintf("%d cycles L1 LUT, +13 cycles L2 LUT; waits for the CRC queue to drain", mc.L1.HitLatency)},
		{"update src,LUT_ID", fmt.Sprintf("%d cycles", mc.UpdateLatency)},
		{"invalidate LUT_ID", "1 cycle per way in a set (dedicated hardware)"},
	}
	fig.Notes = append(fig.Notes,
		"paper Table 4 charges one cycle per byte for the feeds; the evaluated unit is unrolled 4x (§6.1), which the model defaults to — set CRCBytesPerCycle=1 for the byte-serial unit (BenchmarkAblationCRCRate)")
	return fig
}

// Table5 reproduces the synthesized unit costs adopted as model
// constants.
func Table5() *Figure {
	fig := &Figure{
		ID:     "Table5",
		Title:  "area, energy and timing of the memoization units (32nm model constants)",
		Header: []string{"unit", "area (mm^2)", "energy (pJ)", "latency (ns)"},
	}
	rows := []struct {
		name string
		c    memo.UnitCosts
	}{
		{"CRC32 unit", memo.CostCRC32Unit},
		{"Hash register", memo.CostHashReg},
		{"LUT (4KB)", memo.CostLUT4KB},
		{"LUT (8KB)", memo.CostLUT8KB},
		{"LUT (16KB)", memo.CostLUT16KB},
	}
	for _, r := range rows {
		fig.Rows = append(fig.Rows, []string{
			r.name,
			fmt.Sprintf("%.4f", r.c.AreaMM2),
			fmt.Sprintf("%.4f", r.c.EnergyPJ),
			fmt.Sprintf("%.4f", r.c.LatencyNS),
		})
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("area overhead with 16KB L1 LUT on two cores: %.2f%% of the %.2f mm^2 HPI processor",
			100*memo.AreaOverhead(16<<10, 2), memo.HPIProcessorAreaMM2))
	return fig
}
