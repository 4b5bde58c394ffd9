// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (ISCA'19 §6), plus ablations of the design choices
// called out in DESIGN.md.  Each benchmark regenerates its artifact and
// reports the headline number through b.ReportMetric; the full rows are
// printed with -v via b.Log.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Increase the input scale (closer to the paper's dataset sizes):
//
//	go test -bench=Fig7a -scale 4
package axmemo_test

import (
	"flag"
	"fmt"
	"testing"

	"axmemo/internal/harness"
	"axmemo/internal/workloads"
)

var (
	benchScale    = flag.Int("scale", 1, "input scale for the benchmark harness")
	benchParallel = flag.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial)")
)

// figBench regenerates one figure per iteration through the sweep
// scheduler — cells prewarmed on the -parallel worker pool — and logs
// the artifact.
func figBench(b *testing.B, id string) *harness.Figure {
	b.Helper()
	var fig *harness.Figure
	for i := 0; i < b.N; i++ {
		s := harness.NewSuite(*benchScale)
		s.Parallel = *benchParallel
		var err error
		fig, err = s.Generate(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + fig.String())
	return fig
}

// lastCellMean parses the figure's average row if present; the figure
// generators put the arithmetic mean in the final row.
func reportAverage(b *testing.B, fig *harness.Figure, metric string, col int) {
	b.Helper()
	if len(fig.Rows) == 0 {
		return
	}
	last := fig.Rows[len(fig.Rows)-1]
	if last[0] != "average" && last[0] != "geomean" {
		return
	}
	var v float64
	if _, err := fmt.Sscanf(last[col], "%f", &v); err == nil {
		b.ReportMetric(v, metric)
	}
}

func BenchmarkTable1DDDG(b *testing.B) {
	var fig *harness.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = harness.Table1(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + fig.String())
}

func BenchmarkFig7aSpeedup(b *testing.B) {
	fig := figBench(b, "Fig7a")
	reportAverage(b, fig, "avg-speedup-best-config", len(fig.Header)-2)
}

func BenchmarkFig7bEnergy(b *testing.B) {
	fig := figBench(b, "Fig7b")
	reportAverage(b, fig, "avg-energy-saving-best-config", len(fig.Header)-2)
}

func BenchmarkFig8DynInsn(b *testing.B) {
	figBench(b, "Fig8")
}

func BenchmarkFig9HitRate(b *testing.B) {
	fig := figBench(b, "Fig9")
	reportAverage(b, fig, "avg-hit-rate-best-config", len(fig.Header)-2)
}

func BenchmarkFig10aQuality(b *testing.B) {
	figBench(b, "Fig10a")
}

func BenchmarkFig10bCDF(b *testing.B) {
	figBench(b, "Fig10b")
}

func BenchmarkFig11Approx(b *testing.B) {
	figBench(b, "Fig11")
}

func BenchmarkATMComparison(b *testing.B) {
	figBench(b, "ATM")
}

func BenchmarkL2Sensitivity(b *testing.B) {
	figBench(b, "SENS")
}

// benchSuite prewarms the shared standard sweep (the cells behind
// Fig7a/7b/8/9/10a) on a pool of the given size.
func benchSuite(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := harness.NewSuite(*benchScale)
		if err := s.Prewarm(workers, "Fig7a", "Fig7b", "Fig8", "Fig9", "Fig10a"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSerial and BenchmarkSuiteParallel bracket the sweep
// scheduler's wall-clock win: same cells, worker pool of 1 vs one per
// CPU.  Their outputs are byte-identical (see
// TestParallelSweepMatchesSerial); only elapsed time differs.
func BenchmarkSuiteSerial(b *testing.B) { benchSuite(b, 1) }

func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0) }

// BenchmarkGenerateAll is one cold sweep of every figure on the
// -parallel pool: the figure_sweep workload's unit of work.
func BenchmarkGenerateAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := harness.NewSuite(*benchScale)
		s.Parallel = *benchParallel
		if _, err := s.GenerateAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCRCWidth sweeps the CRC tag width (16/32/64 bits) on
// the widest-input benchmarks and reports true hash collisions and
// output quality — the design choice behind "32-bit CRC is generally
// large enough to avoid collision" (§6).
func BenchmarkAblationCRCWidth(b *testing.B) {
	names := []string{"blackscholes", "sobel", "srad"}
	for i := 0; i < b.N; i++ {
		for _, width := range []uint{16, 32, 64} {
			for _, name := range names {
				w, err := workloads.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				cfg := harness.BestConfig()
				cfg.Name = fmt.Sprintf("CRC%d", width)
				cfg.CRCWidth = width
				cfg.TrackCollisions = true
				cfg.Scale = *benchScale
				r, err := harness.Run(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.Logf("CRC%-2d %-14s collisions=%-6d hit=%5.1f%% quality=%.5f%%",
						width, name, r.Collisions, 100*r.HitRate, 100*r.Quality)
				}
			}
		}
	}
}

// BenchmarkAblationLUTGeometry compares the two set layouts of §3.3 —
// 8-way × 4-byte data vs 4-way × 8-byte data — on a 4-byte-output
// benchmark, isolating the capacity/associativity trade.
func BenchmarkAblationLUTGeometry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wide := range []bool{false, true} {
			w, err := workloads.ByName("sobel") // 4-byte output
			if err != nil {
				b.Fatal(err)
			}
			cfg := harness.HW("geometry", 8, 0)
			cfg.DataBytes8 = wide
			cfg.Scale = *benchScale
			r, err := harness.Run(w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				layout := "8-way x 4B"
				if wide {
					layout = "4-way x 8B"
				}
				b.Logf("%-11s hit=%5.1f%% cycles=%d", layout, 100*r.HitRate, r.Cycles)
			}
		}
	}
}

// BenchmarkAblationAdaptive contrasts compile-time truncation selection
// (Table 2's profiled levels) against the §3.1 runtime alternative: start
// with no truncation and let the quality monitor's sampled comparisons
// drive the level up at run time.
func BenchmarkAblationAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"sobel", "inversek2j"} {
			w, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			staticCfg := harness.BestConfig()
			staticCfg.Scale = *benchScale
			static, err := harness.Run(w, staticCfg)
			if err != nil {
				b.Fatal(err)
			}
			adCfg := harness.BestConfig()
			adCfg.Name = "adaptive"
			adCfg.Trunc = make([]uint8, len(w.TruncBits)) // start untruncated
			adCfg.Adaptive = true
			adCfg.Scale = *benchScale
			adaptive, err := harness.Run(w, adCfg)
			if err != nil {
				b.Fatal(err)
			}
			none := harness.BestConfig()
			none.Name = "no-approx"
			none.Trunc = make([]uint8, len(w.TruncBits))
			none.Scale = *benchScale
			noApprox, err := harness.Run(w, none)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.Logf("%-11s static(profiled) hit=%5.1f%%  adaptive hit=%5.1f%%  no-approx hit=%5.1f%%  (quality %.4f%% / %.4f%% / %.4f%%)",
					name, 100*static.HitRate, 100*adaptive.HitRate, 100*noApprox.HitRate,
					100*static.Quality, 100*adaptive.Quality, 100*noApprox.Quality)
			}
		}
	}
}

// BenchmarkAblationCRCRate compares the byte-serial CRC unit of Table 4
// (1 B/cycle) against the evaluated 4x-unrolled pipelined unit
// (4 B/cycle) on the widest-input benchmark, where the lookup stalls on
// the input queue.
func BenchmarkAblationCRCRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, rate := range []int{1, 4} {
			w, err := workloads.ByName("sobel") // 36-byte inputs
			if err != nil {
				b.Fatal(err)
			}
			cfg := harness.BestConfig()
			cfg.Name = fmt.Sprintf("crc-rate-%d", rate)
			cfg.CRCBytesPerCycle = rate
			cfg.Scale = *benchScale
			r, err := harness.Run(w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.Logf("%d B/cycle: %d cycles", rate, r.Cycles)
			}
		}
	}
}

// BenchmarkAblationHash contrasts the CRC hash against ATM's
// shuffled-byte-sampling hash on the same benchmark: sampling gets a
// similar hit rate but silently reuses wrong entries (collisions) —
// §3.1's "every bit of the inputs affects the CRC output".
func BenchmarkAblationHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := workloads.ByName("blackscholes") // 24-byte inputs with exact repeats
		if err != nil {
			b.Fatal(err)
		}
		crcCfg := harness.BestConfig()
		crcCfg.TrackCollisions = true
		crcCfg.Scale = *benchScale
		crcRes, err := harness.Run(w, crcCfg)
		if err != nil {
			b.Fatal(err)
		}
		atmRes, err := harness.Run(w, harness.Config{Name: "ATM", Mode: harness.ModeATM, Scale: *benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("CRC32:    collisions=%-6d hit=%5.1f%% E_r=%.4f%%", crcRes.Collisions, 100*crcRes.HitRate, 100*crcRes.Quality)
			b.Logf("sampling: collisions=%-6d hit=%5.1f%% E_r=%.4f%%", atmRes.Collisions, 100*atmRes.HitRate, 100*atmRes.Quality)
		}
	}
}
