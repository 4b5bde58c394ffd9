package harness

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"axmemo/internal/cpu"
	"axmemo/internal/fault"
	"axmemo/internal/obs"
	"axmemo/internal/quality"
	"axmemo/internal/workloads"
)

func TestStandardConfigsMatchPaperSweep(t *testing.T) {
	cfgs := StandardConfigs()
	want := []string{"L1 (4KB)", "L1 (8KB)", "L1 (8KB)+L2 (256KB)", "L1 (8KB)+L2 (512KB)", "Software LUT"}
	if len(cfgs) != len(want) {
		t.Fatalf("got %d configs, want %d", len(cfgs), len(want))
	}
	for i, c := range cfgs {
		if c.Name != want[i] {
			t.Errorf("config %d = %q, want %q", i, c.Name, want[i])
		}
	}
	if cfgs[4].Mode != ModeSoftLUT {
		t.Error("last config is not the software LUT")
	}
}

func TestRunBaselineVsHardware(t *testing.T) {
	w, err := workloads.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(w, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if base.HitRate != 0 || base.MemoInsns != 0 {
		t.Errorf("baseline reports memo activity: %+v", base)
	}
	hw, err := Run(w, BestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if hw.Cycles >= base.Cycles {
		t.Errorf("hardware config not faster: %d vs %d", hw.Cycles, base.Cycles)
	}
	if hw.EnergyPJ >= base.EnergyPJ {
		t.Errorf("hardware config not cheaper: %.3g vs %.3g pJ", hw.EnergyPJ, base.EnergyPJ)
	}
	if hw.HitRate < 0.8 {
		t.Errorf("hit rate = %.3f", hw.HitRate)
	}
}

func TestRunATMAndSoft(t *testing.T) {
	w, err := workloads.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSoftLUT, ModeATM} {
		r, err := Run(w, Config{Name: "m", Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if r.HitRate <= 0 {
			t.Errorf("mode %d: no software hits", mode)
		}
	}
}

func TestSuiteCaching(t *testing.T) {
	s := NewSuite(1)
	s.Obs = obs.NewSink()
	w, _ := workloads.ByName("fft")
	a, err := s.Baseline(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Baseline(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("cached baseline differs from its run")
	}
	c1, err := s.Under(w, BestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Under(w, BestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Error("cached config run differs from its run")
	}
	if got := execCount(s); got != 2 {
		t.Errorf("executed %d simulations, want 2 (the repeats are cached)", got)
	}
	if got := s.Store.Stats().Entries; got != 2 {
		t.Errorf("store holds %d cells, want 2", got)
	}
}

// TestFig7aShape asserts the qualitative claims of Fig. 7a on the full
// sweep: larger hardware configurations win on average, jmeint never
// does, blackscholes leads, and the software LUT trails the hardware.
func TestFig7aShape(t *testing.T) {
	s := NewSuite(1)
	speed := func(w *workloads.Workload, cfg Config) float64 {
		base, err := s.Baseline(w)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Under(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(base.Cycles) / float64(r.Cycles)
	}
	var bestSum, smallSum float64
	for _, w := range workloads.All() {
		sBest := speed(w, BestConfig())
		sSmall := speed(w, HW("L1 (4KB)", 4, 0))
		sSoft := speed(w, Config{Name: "Software LUT", Mode: ModeSoftLUT})
		bestSum += sBest
		smallSum += sSmall
		switch w.Name {
		case "jmeint":
			if sBest > 1.05 {
				t.Errorf("jmeint speedup %.2f, want ~none", sBest)
			}
		case "blackscholes":
			if sBest < 3 {
				t.Errorf("blackscholes speedup %.2f, want the largest", sBest)
			}
			if sSoft >= sBest {
				t.Errorf("software LUT (%.2f) should trail hardware (%.2f) on blackscholes", sSoft, sBest)
			}
		case "sobel", "jpeg":
			if sSoft >= 1.0 {
				t.Errorf("%s: software LUT speedup %.2f, paper reports a slowdown", w.Name, sSoft)
			}
		}
	}
	if bestSum <= smallSum {
		t.Errorf("largest config (avg %.2f) not better than smallest (avg %.2f)", bestSum/10, smallSum/10)
	}
}

// TestFig9Monotonic asserts hit rate grows (or holds) with LUT capacity.
func TestFig9Monotonic(t *testing.T) {
	s := NewSuite(1)
	for _, w := range workloads.All() {
		small, err := s.Under(w, HW("L1 (4KB)", 4, 0))
		if err != nil {
			t.Fatal(err)
		}
		big, err := s.Under(w, BestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if big.HitRate+0.01 < small.HitRate {
			t.Errorf("%s: hit rate fell with capacity: %.3f -> %.3f", w.Name, small.HitRate, big.HitRate)
		}
	}
}

// TestFig10aQualityBounds asserts the paper's quality claim: output error
// below ~1% everywhere with the Table 2 truncations, and the monitor
// never trips.
func TestFig10aQualityBounds(t *testing.T) {
	s := NewSuite(1)
	for _, w := range workloads.All() {
		r, err := s.Under(w, BestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if r.Quality > 0.012 {
			t.Errorf("%s quality loss %.4f, want ≤ ~1%%", w.Name, r.Quality)
		}
		if r.Monitor.Disabled {
			t.Errorf("%s: quality monitor tripped at Table 2 settings", w.Name)
		}
	}
}

func TestFigureFormatting(t *testing.T) {
	fig := &Figure{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"r1", "v"}, {"longer-name", "w"}},
		Notes:  []string{"hello"},
	}
	out := fig.String()
	for _, want := range []string{"X — demo", "longer-name", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted figure missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Static(t *testing.T) {
	fig := Table2()
	if len(fig.Rows) != 10 {
		t.Fatalf("Table 2 has %d rows", len(fig.Rows))
	}
	if fig.Rows[0][0] != "blackscholes" || fig.Rows[9][0] != "srad" {
		t.Error("Table 2 order wrong")
	}
}

func TestTable5Static(t *testing.T) {
	fig := Table5()
	if len(fig.Rows) != 5 {
		t.Fatalf("Table 5 has %d rows", len(fig.Rows))
	}
	if !strings.Contains(fig.Notes[0], "2.08%") {
		t.Errorf("Table 5 note missing the paper's area overhead: %v", fig.Notes)
	}
}

func TestTable1RunsOnAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 traces every benchmark")
	}
	fig, err := Table1(40_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 10 {
		t.Fatalf("Table 1 has %d rows", len(fig.Rows))
	}
	// Every benchmark must expose at least one candidate region.
	for _, row := range fig.Rows {
		if row[1] == "0" {
			t.Errorf("%s: no dynamic candidate subgraphs found", row[0])
		}
	}
}

func TestCRCWidthOverride(t *testing.T) {
	w, _ := workloads.ByName("fft")
	cfg := BestConfig()
	cfg.CRCWidth = 16
	cfg.TrackCollisions = true
	if _, err := Run(w, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.CRCWidth = 13
	if _, err := Run(w, cfg); err == nil {
		t.Error("invalid CRC width accepted")
	}
}

// TestRunChecksConfig: Run refuses a configuration its workload cannot
// run, before building anything, with an error instead of a panic (a
// truncation list of the wrong length), a huge allocation (a size past
// MaxSizeKB) or a wrong answer (an unknown mode ran as hardware and
// reported a 0% hit rate); the largest sizes anything in the repo builds
// still pass.
func TestRunChecksConfig(t *testing.T) {
	w, err := workloads.ByName("sobel")
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"12 trunc entries":   {Name: "x", Mode: ModeHW, Trunc: make([]uint8, 12)},
		"empty trunc":        {Name: "x", Mode: ModeHW, Trunc: []uint8{}},
		"l1 past the cap":    HW("x", 2*MaxSizeKB, 0),
		"l2 past the cap":    HW("x", 8, 2*MaxSizeKB),
		"cache past the cap": {Name: "x", Mode: ModeHW, TotalL2CacheKB: 2 * MaxSizeKB},
		"mode 7":             {Name: "x", Mode: 7},
		"mode -1":            {Name: "x", Mode: -1},
	} {
		if _, err := Run(w, cfg); err == nil {
			t.Errorf("%s: Run accepted %+v", name, cfg)
		}
	}
	for _, cfg := range []Config{
		{Name: "x", Mode: ModeHW, Trunc: make([]uint8, len(w.TruncBits))},
		HW("x", 64, 512),
		{Name: "x", Mode: ModeHW, TotalL2CacheKB: 1024},
	} {
		if err := cfg.Check(w); err != nil {
			t.Errorf("Check(%+v) = %v, want nil", cfg, err)
		}
	}
}

func TestAblationFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	s := NewSuite(1)
	crcFig, err := s.Figure("ABL-CRC")
	if err != nil {
		t.Fatal(err)
	}
	if len(crcFig.Rows) != 9 {
		t.Fatalf("CRC ablation rows = %d, want 9", len(crcFig.Rows))
	}
	// CRC-16 must show collisions somewhere; CRC-32/64 must show none.
	saw16 := false
	for _, row := range crcFig.Rows {
		if row[1] == "16" && row[2] != "0" {
			saw16 = true
		}
		if (row[1] == "32" || row[1] == "64") && row[2] != "0" {
			t.Errorf("CRC-%s collided: %v", row[1], row)
		}
	}
	if !saw16 {
		t.Error("CRC-16 never collided; ablation shows nothing")
	}

	adFig, err := s.Figure("ABL-ADAPT")
	if err != nil {
		t.Fatal(err)
	}
	if len(adFig.Rows) != 3 {
		t.Fatalf("adaptive ablation rows = %d", len(adFig.Rows))
	}

	rateFig, err := s.Figure("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rateFig.Rows {
		if row[3] < "1" {
			t.Errorf("unrolling slowed %s down: %v", row[0], row)
		}
	}
}

func TestFigureBars(t *testing.T) {
	fig := &Figure{
		ID:     "B",
		Title:  "bars",
		Header: []string{"name", "value"},
		Rows:   [][]string{{"alpha", "2.00x"}, {"beta", "1.00x"}, {"bad", "n/a"}},
	}
	out := fig.Bars(1, 10)
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "##########") {
		t.Errorf("bars missing full-scale row:\n%s", out)
	}
	if !strings.Contains(out, "#####") {
		t.Errorf("bars missing half-scale row:\n%s", out)
	}
	if strings.Contains(out, "bad") {
		t.Errorf("unparsable row rendered:\n%s", out)
	}
	if (&Figure{Header: []string{"x"}}).Bars(0, 10) != "" {
		t.Error("empty figure rendered bars")
	}
}

// scoredRun runs w under cfg and also returns the element-wise errors
// of its outputs, captured by wrapping the workload's Outputs reader.
func scoredRun(t *testing.T, w *workloads.Workload, cfg Config) (*Result, []float64) {
	t.Helper()
	var outs, gold []float64
	wrapped := *w
	wrapped.Setup = func(img *cpu.Memory, scale int) *workloads.Instance {
		inst := *w.Setup(img, scale)
		read := inst.Outputs
		inst.Outputs = func(img *cpu.Memory) []float64 {
			outs = read(img)
			return outs
		}
		gold = inst.Golden
		return &inst
	}
	res, err := Run(&wrapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := quality.ElementErrors(outs, gold)
	if err != nil {
		t.Fatal(err)
	}
	return res, errs
}

// TestErrorCDFMatchesSortedCDF checks the counted ErrorCDF every Result
// carries against the sorted CDF of the run's element errors, bit for
// bit: under BestConfig for every element-error workload, and under a
// LUT bit-flip plan whose garbage-exponent outputs clamp to 1.
func TestErrorCDFMatchesSortedCDF(t *testing.T) {
	check := func(name string, res *Result, errs []float64) {
		t.Helper()
		want := quality.NewCDF(errs).Points(errorCDFPoints)
		if len(res.ErrorCDF) != len(want) {
			t.Fatalf("%s: ErrorCDF = %v, want %v", name, res.ErrorCDF, want)
		}
		for i := range want {
			if math.Float64bits(res.ErrorCDF[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: ErrorCDF = %v, want %v", name, res.ErrorCDF, want)
			}
		}
		if res.MeanError != quality.Mean(errs) {
			t.Fatalf("%s: MeanError = %v, want %v", name, res.MeanError, quality.Mean(errs))
		}
	}
	n := 0
	for _, w := range workloads.All() {
		if w.Misclass {
			res, err := Run(w, BestConfig())
			if err != nil {
				t.Fatal(err)
			}
			if res.ErrorCDF != nil {
				t.Errorf("%s: misclassification workload has ErrorCDF %v", w.Name, res.ErrorCDF)
			}
			continue
		}
		n++
		res, errs := scoredRun(t, w, BestConfig())
		check(w.Name, res, errs)
	}
	if n != 9 {
		t.Fatalf("checked %d element-error workloads, want 9", n)
	}

	w, err := workloads.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	cfg := BestConfig()
	cfg.Faults = &fault.Plan{Seed: 1, LUTBitFlipRate: 1e-2}
	res, errs := scoredRun(t, w, cfg)
	clamped := 0
	for _, e := range errs {
		if e == 1 {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("bit-flip run has no clamped element errors")
	}
	check("blackscholes/bit-flips", res, errs)
}
