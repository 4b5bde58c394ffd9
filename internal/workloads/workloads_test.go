package workloads

import (
	"strings"
	"testing"

	"axmemo/internal/compiler"
	"axmemo/internal/cpu"
	"axmemo/internal/memo"
	"axmemo/internal/quality"
)

// runOne executes a workload at scale 1, optionally memoized with the
// given unit config and truncation override, and returns the instance and
// final stats plus outputs.
func runOne(t *testing.T, w *Workload, mc *memo.Config, trunc []uint8) (*Instance, cpu.Stats, []float64, []bool) {
	t.Helper()
	prog := w.Build()
	cfg := cpu.DefaultConfig()
	var kinds map[uint8]memo.OutputKind
	if mc != nil {
		regions := w.Regions(trunc)
		if err := compiler.Transform(prog, regions); err != nil {
			t.Fatalf("%s: transform: %v", w.Name, err)
		}
		full, k, err := compiler.MemoConfigFor(prog, regions, *mc)
		if err != nil {
			t.Fatalf("%s: memo config: %v", w.Name, err)
		}
		kinds = k
		cfg.Memo = &full
	}
	img := cpu.NewMemory(w.MemBytes(1))
	inst := w.Setup(img, 1)
	m, err := cpu.New(prog, img, cfg)
	if err != nil {
		t.Fatalf("%s: new machine: %v", w.Name, err)
	}
	for lut, kind := range kinds {
		m.MemoUnit().SetOutputKind(lut, kind)
	}
	res, err := m.Run(inst.Args...)
	if err != nil {
		t.Fatalf("%s: run: %v", w.Name, err)
	}
	var outs []float64
	var outsB []bool
	if w.Misclass {
		outsB = inst.OutputsBool(img)
	} else {
		outs = inst.Outputs(img)
	}
	return inst, res.Stats, outs, outsB
}

func defaultUnit() *memo.Config {
	mc := memo.DefaultConfig()
	return &mc
}

func bigUnit() *memo.Config {
	mc := memo.DefaultConfig()
	mc.L2 = &memo.LUTConfig{SizeBytes: 512 << 10, DataBytes: 4, HitLatency: 13}
	return &mc
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("registry has %d workloads, want 10", len(all))
	}
	wantOrder := []string{"blackscholes", "fft", "inversek2j", "jmeint", "jpeg",
		"kmeans", "sobel", "hotspot", "lavamd", "srad"}
	for i, w := range all {
		if w.Name != wantOrder[i] {
			t.Errorf("workload %d = %s, want %s (Table 2 order)", i, w.Name, wantOrder[i])
		}
		if w.Domain == "" || w.Description == "" || w.InputBytes == "" {
			t.Errorf("%s: missing Table 2 metadata", w.Name)
		}
		if len(w.TruncBits) == 0 {
			t.Errorf("%s: no truncation defaults", w.Name)
		}
	}
	for i, e := range registry {
		if e.name != wantOrder[i] {
			t.Errorf("registry entry %d = %s, want %s (Table 2 order)", i, e.name, wantOrder[i])
		}
		a, err := ByName(e.name)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name != e.name {
			t.Errorf("ByName(%q) built workload %q", e.name, a.Name)
		}
		// Closures carry per-instance state, so every call must build
		// a fresh instance.
		if b, _ := ByName(e.name); a == b {
			t.Errorf("ByName(%q) returned the same instance twice", e.name)
		}
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, name := range wantOrder {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not list %s", err, name)
		}
	}
}

// TestBaselineMatchesGolden: the unmemoized simulated program must agree
// with the pure-Go golden implementation to float32 rounding noise.
func TestBaselineMatchesGolden(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			inst, st, outs, outsB := runOne(t, w, nil, nil)
			if w.Misclass {
				mc, err := quality.Misclassification(outsB, inst.GoldenBool)
				if err != nil {
					t.Fatal(err)
				}
				if mc != 0 {
					t.Errorf("baseline misclassification = %v, want 0", mc)
				}
			} else {
				er, err := quality.OutputError(outs, inst.Golden)
				if err != nil {
					t.Fatal(err)
				}
				if er > 1e-9 {
					t.Errorf("baseline E_r vs golden = %g, want ≤ 1e-9", er)
				}
			}
			if st.MemoInsns != 0 {
				t.Errorf("baseline executed %d memo instructions", st.MemoInsns)
			}
			if st.Cycles == 0 || st.Insns == 0 {
				t.Error("no work simulated")
			}
		})
	}
}

// TestMemoizedQualityAndActivity: memoized runs must look up once per
// kernel invocation and keep output quality within the paper's bound for
// the Table 2 truncation levels.
func TestMemoizedQualityAndActivity(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			inst, st, outs, outsB := runOne(t, w, bigUnit(), nil)
			if st.Memo.Lookups != uint64(inst.N) {
				t.Errorf("lookups = %d, want %d (one per kernel invocation)", st.Memo.Lookups, inst.N)
			}
			var q float64
			if w.Misclass {
				var err error
				q, err = quality.Misclassification(outsB, inst.GoldenBool)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				var err error
				q, err = quality.OutputError(outs, inst.Golden)
				if err != nil {
					t.Fatal(err)
				}
			}
			bound := compiler.ErrorBound(w.ImageOutput)
			// Allow headroom over the compile-time profiling bound:
			// the paper reports final whole-application errors up to
			// ~1% (Fig. 10a).
			if q > 5*bound {
				t.Errorf("quality loss = %g, want ≤ %g", q, 5*bound)
			}
			if st.Monitor.Disabled {
				t.Error("quality monitor disabled memoization at Table 2 truncation levels")
			}
		})
	}
}

// TestHitRateShape checks the cross-benchmark shape the paper reports:
// Blackscholes and FFT have high hit rates, Jmeint has essentially none.
func TestHitRateShape(t *testing.T) {
	rates := map[string]float64{}
	for _, w := range All() {
		_, st, _, _ := runOne(t, w, bigUnit(), nil)
		rates[w.Name] = st.Memo.HitRate()
		t.Logf("%-14s hit rate %.3f", w.Name, st.Memo.HitRate())
	}
	if rates["blackscholes"] < 0.80 {
		t.Errorf("blackscholes hit rate = %.3f, want ≥ 0.80", rates["blackscholes"])
	}
	if rates["fft"] < 0.60 {
		t.Errorf("fft hit rate = %.3f, want ≥ 0.60", rates["fft"])
	}
	if rates["jmeint"] > 0.05 {
		t.Errorf("jmeint hit rate = %.3f, want ≈ 0 (paper: < 0.1%%)", rates["jmeint"])
	}
	for _, name := range []string{"inversek2j", "kmeans", "sobel", "hotspot", "srad", "lavamd"} {
		if rates[name] < 0.25 {
			t.Errorf("%s hit rate = %.3f, want ≥ 0.25 (approximable workloads must show reuse)", name, rates[name])
		}
	}
}

// TestSpeedupShape checks who wins: most benchmarks speed up with the
// large configuration; Jmeint must not gain.
func TestSpeedupShape(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, base, _, _ := runOne(t, w, nil, nil)
			_, mem, _, _ := runOne(t, w, bigUnit(), nil)
			speedup := float64(base.Cycles) / float64(mem.Cycles)
			t.Logf("%s speedup %.2fx (insns %d -> %d)", w.Name, speedup, base.Insns, mem.Insns)
			switch w.Name {
			case "jmeint":
				if speedup > 1.05 {
					t.Errorf("jmeint speedup = %.2f, want ≈ or below 1 (paper: no gain)", speedup)
				}
			case "blackscholes":
				if speedup < 2 {
					t.Errorf("blackscholes speedup = %.2f, want ≥ 2", speedup)
				}
			default:
				if speedup < 0.9 {
					t.Errorf("%s memoization slowed execution %.2fx beyond tolerance", w.Name, speedup)
				}
			}
		})
	}
}

// TestTruncationRaisesHitRate: the Fig. 11 effect — for workloads with
// non-zero Table 2 truncation, disabling it must drop the hit rate.
func TestTruncationRaisesHitRate(t *testing.T) {
	for _, name := range []string{"inversek2j", "jpeg", "kmeans", "sobel", "srad"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, withT, _, _ := runOne(t, w, bigUnit(), nil)
		zeros := make([]uint8, len(w.TruncBits))
		_, withoutT, _, _ := runOne(t, w, bigUnit(), zeros)
		if withT.Memo.HitRate() <= withoutT.Memo.HitRate() {
			t.Errorf("%s: truncation does not raise hit rate (%.3f vs %.3f)",
				name, withT.Memo.HitRate(), withoutT.Memo.HitRate())
		}
	}
}

// TestKMeansInvalidates: the epoch mechanism must clear the LUT between
// iterations.
func TestKMeansInvalidates(t *testing.T) {
	w, _ := ByName("kmeans")
	_, st, _, _ := runOne(t, w, defaultUnit(), nil)
	if st.Memo.Invalidates != kmIters {
		t.Errorf("invalidates = %d, want %d (one per iteration)", st.Memo.Invalidates, kmIters)
	}
}

// TestLargerLUTNeverHurtsHitRate: Fig. 9's monotonicity.
func TestLargerLUTNeverHurtsHitRate(t *testing.T) {
	small := memo.DefaultConfig()
	small.L1.SizeBytes = 4 << 10
	for _, name := range []string{"blackscholes", "inversek2j", "sobel"} {
		w, _ := ByName(name)
		sCfg := small
		_, stS, _, _ := runOne(t, w, &sCfg, nil)
		_, stL, _, _ := runOne(t, w, bigUnit(), nil)
		if stL.Memo.HitRate()+0.01 < stS.Memo.HitRate() {
			t.Errorf("%s: larger LUT lowered hit rate (%.3f -> %.3f)",
				name, stS.Memo.HitRate(), stL.Memo.HitRate())
		}
	}
}

func TestSyntheticImageProperties(t *testing.T) {
	img := SyntheticImage(32, 32, 1)
	if len(img) != 1024 {
		t.Fatalf("image size %d", len(img))
	}
	for i, v := range img {
		if v < 0 || v > 255 || v != floorf(v) {
			t.Fatalf("pixel %d = %v not an 8-bit level", i, v)
		}
	}
	// Determinism.
	img2 := SyntheticImage(32, 32, 1)
	for i := range img {
		if img[i] != img2[i] {
			t.Fatal("synthetic image not deterministic")
		}
	}
	// Different seeds differ.
	img3 := SyntheticImage(32, 32, 2)
	same := 0
	for i := range img {
		if img[i] == img3[i] {
			same++
		}
	}
	if same == len(img) {
		t.Error("different seeds produced identical images")
	}
}

func TestSyntheticRGB(t *testing.T) {
	r, g, b := SyntheticRGBImage(16, 16, 3)
	if len(r) != 256 || len(g) != 256 || len(b) != 256 {
		t.Fatal("bad channel sizes")
	}
	for i := range r {
		for _, v := range []float32{r[i], g[i], b[i]} {
			if v < 0 || v > 255 {
				t.Fatalf("channel value %v out of range", v)
			}
		}
	}
}

func TestTable2Metadata(t *testing.T) {
	want := map[string]struct {
		bytes string
		trunc []uint8
	}{
		"blackscholes": {"24", []uint8{0}},
		"fft":          {"4", []uint8{0}},
		"inversek2j":   {"8", []uint8{8}},
		"jmeint":       {"36", []uint8{6}},
		"jpeg":         {"(16, 16)", []uint8{2, 7}},
		"kmeans":       {"12", []uint8{16}},
		"sobel":        {"36", []uint8{16}},
		"hotspot":      {"16", []uint8{8}},
		"lavamd":       {"12", []uint8{0}},
		"srad":         {"24", []uint8{18}},
	}
	for _, w := range All() {
		exp := want[w.Name]
		if w.InputBytes != exp.bytes {
			t.Errorf("%s input bytes = %s, want %s", w.Name, w.InputBytes, exp.bytes)
		}
		if len(w.TruncBits) != len(exp.trunc) {
			t.Errorf("%s trunc = %v, want %v", w.Name, w.TruncBits, exp.trunc)
			continue
		}
		for i := range exp.trunc {
			if w.TruncBits[i] != exp.trunc[i] {
				t.Errorf("%s trunc = %v, want %v", w.Name, w.TruncBits, exp.trunc)
			}
		}
	}
}

// TestPaperScaleMetadata: every benchmark declares the scale at which its
// synthetic input reaches the paper's dataset size.
func TestPaperScaleMetadata(t *testing.T) {
	for _, w := range All() {
		if w.PaperScale < 1 {
			t.Errorf("%s: PaperScale = %d", w.Name, w.PaperScale)
		}
	}
}

// TestQualityMonitorTripsOnAbsurdTruncation: failure injection — with a
// recklessly aggressive truncation the sampled comparisons must exceed
// the 10%/10% rule and the monitor must disable memoization (§6's safety
// mechanism), instead of silently shipping garbage at full speed.
func TestQualityMonitorTripsOnAbsurdTruncation(t *testing.T) {
	w, err := ByName("inversek2j")
	if err != nil {
		t.Fatal(err)
	}
	absurd := []uint8{28} // fold almost the whole mantissa and exponent
	mc := memo.DefaultConfig()
	mc.L2 = &memo.LUTConfig{SizeBytes: 512 << 10, DataBytes: 4, HitLatency: 13}
	// The paper's 1-in-100 sampling over 100-comparison windows needs
	// ~10k hits per decision; sample densely so the short test run
	// reaches a decision window.  The 10%/10% disable rule itself is
	// unchanged.
	mc.Monitor.SamplePeriod = 5
	mc.Monitor.WindowSize = 40
	_, st, _, _ := runOne(t, w, &mc, absurd)
	if !st.Monitor.Disabled {
		t.Errorf("monitor did not trip: %+v (hit rate %.3f)", st.Monitor, st.Memo.HitRate())
	}
	// And the run must have *stopped* hitting after the disable.
	if st.Memo.HitRate() > 0.9 {
		t.Errorf("hit rate %.3f after disable; memoization kept running", st.Memo.HitRate())
	}
}
