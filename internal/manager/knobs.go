package manager

import (
	"fmt"

	"axmemo/internal/harness"
	"axmemo/internal/workloads"
)

// Truncation-level geometry.  A workload's Table 2 defaults are the
// anchor: level DefaultLevel reproduces them exactly, each level away
// moves every region's truncation by levelStride bits (clamped to
// [0, maxTruncBits]).  Level 0 is therefore the conservative end —
// defaults minus 8 bits — and the climb approaches the defaults from
// below before pushing past them where the budget allows.
const (
	// DefaultLevel is the level whose truncation equals the paper's
	// Table 2 defaults.
	DefaultLevel = 4
	levelStride  = 2
	maxTruncBits = 30
)

// TruncAtLevel maps a workload's default truncation vector to the
// vector at the given level.  The result always has the defaults'
// length, which the workload's region table requires.
func TruncAtLevel(defaults []uint8, level int) []uint8 {
	out := make([]uint8, len(defaults))
	for i, d := range defaults {
		t := int(d) + levelStride*(level-DefaultLevel)
		if t < 0 {
			t = 0
		}
		if t > maxTruncBits {
			t = maxTruncBits
		}
		out[i] = uint8(t)
	}
	return out
}

// Knobs is one concrete operating point the manager hands out: the
// truncation level, the tenant's LUT capacity slice, and the guard
// budget (the tenant's error budget, so the PR 1 guard polices the
// same SLO the manager optimizes against).
type Knobs struct {
	Level       int
	L1KB        int
	GuardBudget float64
}

// ConfigName renders the harness config name for these knobs.  The
// name encodes every knob — the store key the suite keeps cells under
// includes it — but deliberately NOT the tenant, so
// tenants that converge to the same operating point share cells.
func (k Knobs) ConfigName() string {
	return fmt.Sprintf("managed L%d (%dKB, guard %g)", k.Level, k.L1KB, k.GuardBudget)
}

// CellConfig builds the harness configuration for these knobs on one
// workload (hardware mode, L1 only: the tenant's slice is a carve-out
// of the shared capacity, not a private L2).
func (k Knobs) CellConfig(w *workloads.Workload) harness.Config {
	cfg := harness.HW(k.ConfigName(), k.L1KB, 0)
	cfg.Trunc = TruncAtLevel(w.TruncBits, k.Level)
	cfg.GuardBudget = k.GuardBudget
	return cfg
}
