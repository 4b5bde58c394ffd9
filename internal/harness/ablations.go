package harness

import (
	"fmt"

	"axmemo/internal/workloads"
)

// The benchmark subsets and configurations below are shared between the
// ablation figure generators and the sweep scheduler's cell enumeration
// (scheduler.go), so the two cannot drift apart.
var (
	ablCRCWidthNames     = []string{"blackscholes", "sobel", "srad"}
	ablCRCWidths         = []uint{16, 32, 64}
	ablAdaptiveNames     = []string{"inversek2j", "sobel", "srad"}
	energyBreakdownNames = []string{"blackscholes", "sobel", "jmeint"}
	ablCRCRateNames      = []string{"sobel", "jmeint"}
)

// crcWidthConfig is BestConfig at a given CRC tag width, with true-hash
// collision tracking on.
func crcWidthConfig(width uint) Config {
	cfg := BestConfig()
	cfg.Name = fmt.Sprintf("CRC%d", width)
	cfg.CRCWidth = width
	cfg.TrackCollisions = true
	return cfg
}

// adaptiveConfig starts from zero truncation and lets the §3.1 runtime
// controller pick the truncation profile.
func adaptiveConfig(w *workloads.Workload) Config {
	cfg := BestConfig()
	cfg.Name = "adaptive"
	cfg.Trunc = make([]uint8, len(w.TruncBits))
	cfg.Adaptive = true
	return cfg
}

// serialCRCConfig models the Table 4 byte-serial hash unit.
func serialCRCConfig() Config {
	cfg := BestConfig()
	cfg.Name = "serial-crc"
	cfg.CRCBytesPerCycle = 1
	return cfg
}

// ablationCRCWidth sweeps the CRC tag width on the widest-input
// benchmarks: the §6 design claim is that 32 bits is "generally large
// enough to avoid collision", while 16 bits visibly is not.
func ablationCRCWidth(s results) (*Figure, error) {
	fig := &Figure{
		ID:     "ABL-CRC",
		Title:  "ablation: CRC tag width vs true hash collisions",
		Header: []string{"benchmark", "width", "collisions", "hit rate", "quality loss"},
	}
	for _, name := range ablCRCWidthNames {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, width := range ablCRCWidths {
			r, err := s.Under(w, crcWidthConfig(width))
			if err != nil {
				return nil, err
			}
			fig.Rows = append(fig.Rows, []string{
				name, fmt.Sprintf("%d", width),
				fmt.Sprintf("%d", r.Collisions),
				pct(r.HitRate),
				fmt.Sprintf("%.5f%%", 100*r.Quality),
			})
		}
	}
	fig.Notes = append(fig.Notes, "paper §6: \"32-bit CRC is generally large enough to avoid collision\"")
	return fig, nil
}

// ablationAdaptive contrasts the compile-time truncation profile against
// the §3.1 runtime controller starting from zero truncation.
func ablationAdaptive(s results) (*Figure, error) {
	fig := &Figure{
		ID:     "ABL-ADAPT",
		Title:  "ablation: compile-time vs runtime truncation selection",
		Header: []string{"benchmark", "static hit", "adaptive hit", "no-approx hit", "static quality", "adaptive quality"},
	}
	for _, name := range ablAdaptiveNames {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		static, err := s.Under(w, BestConfig())
		if err != nil {
			return nil, err
		}
		adaptive, err := s.Under(w, adaptiveConfig(w))
		if err != nil {
			return nil, err
		}
		noApprox, err := s.Under(w, fig11NoApproxConfig(w))
		if err != nil {
			return nil, err
		}
		fig.Rows = append(fig.Rows, []string{
			name,
			pct(static.HitRate), pct(adaptive.HitRate), pct(noApprox.HitRate),
			fmt.Sprintf("%.4f%%", 100*static.Quality),
			fmt.Sprintf("%.4f%%", 100*adaptive.Quality),
		})
	}
	fig.Notes = append(fig.Notes,
		"the runtime controller needs a warm-up; its hit rate approaches the profiled level as inputs grow (-scale)")
	return fig, nil
}

// energyBreakdown shows where the energy goes — the §1 premise that the
// von Neumann overhead (fetch/decode/issue/commit) dominates and that
// memoization removes it wholesale, paying back a tiny LUT energy.
func energyBreakdown(s results) (*Figure, error) {
	fig := &Figure{
		ID:    "ENERGY",
		Title: "energy breakdown (pJ, millions): where memoization saves",
		Header: []string{"benchmark", "config", "front end", "execute",
			"caches", "DRAM", "memo unit", "static", "total"},
	}
	mpj := func(v float64) string { return fmt.Sprintf("%.2f", v/1e6) }
	for _, name := range energyBreakdownNames {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		base, err := s.Baseline(w)
		if err != nil {
			return nil, err
		}
		hw, err := s.Under(w, BestConfig())
		if err != nil {
			return nil, err
		}
		for _, r := range []*Result{base, hw} {
			fig.Rows = append(fig.Rows, []string{
				name, r.Config,
				mpj(r.Energy.FrontEndPJ), mpj(r.Energy.ExecPJ),
				mpj(r.Energy.CachePJ), mpj(r.Energy.DRAMPJ),
				mpj(r.Energy.MemoPJ), mpj(r.Energy.StaticPJ),
				mpj(r.Energy.TotalPJ()),
			})
		}
	}
	fig.Notes = append(fig.Notes,
		"§1: even for a fused multiply-add, execution can be ~3% of instruction energy — removing whole instructions removes the other ~97% too")
	return fig, nil
}

// ablationCRCRate compares the Table 4 byte-serial hash unit against the
// evaluated 4x-unrolled pipelined one.
func ablationCRCRate(s results) (*Figure, error) {
	fig := &Figure{
		ID:     "ABL-RATE",
		Title:  "ablation: CRC absorption rate (36-byte-input benchmarks stall on the input queue)",
		Header: []string{"benchmark", "1 B/cycle", "4 B/cycle", "speedup from unrolling"},
	}
	for _, name := range ablCRCRateNames {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		sr, err := s.Under(w, serialCRCConfig())
		if err != nil {
			return nil, err
		}
		fast := BestConfig()
		fr, err := s.Under(w, fast)
		if err != nil {
			return nil, err
		}
		fig.Rows = append(fig.Rows, []string{
			name,
			fmt.Sprintf("%d cycles", sr.Cycles),
			fmt.Sprintf("%d cycles", fr.Cycles),
			f2x(float64(sr.Cycles) / float64(fr.Cycles)),
		})
	}
	fig.Notes = append(fig.Notes,
		"§6.1: the evaluated CRC32 unit is unrolled four times and pipelined to absorb a 4-byte word per cycle")
	return fig, nil
}
