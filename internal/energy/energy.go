// Package energy implements the event-based energy model standing in for
// the paper's McPAT + CACTI flow (§6.1).  The simulator counts events
// (instructions by class, cache accesses by level, DRAM accesses,
// memoization-unit operations) and this package prices them.
//
// The per-event constants are chosen for a 32 nm low-power in-order core
// at 2 GHz with the paper's qualitative structure preserved:
//
//   - The front end (fetch, decode, issue, commit — the "von Neumann
//     overhead") dominates per-instruction energy; the execution unit's
//     share can be a few percent (Keckler et al., cited in the paper's
//     introduction).  This is the effect AxMemo monetizes by removing
//     instructions entirely.
//   - Memoization hardware events use the synthesized energies of the
//     paper's Table 5 (see internal/memo.UnitCosts).
//
// Absolute joules are model artifacts; the reproduced quantity is the
// relative energy (baseline / AxMemo), which depends on event counts and
// the ratio structure above.
package energy

import "axmemo/internal/memo"

// Class buckets instructions by execution cost.
type Class uint8

// Instruction energy classes.
const (
	ClassMove   Class = iota // const/mov
	ClassIntALU              // add/sub/logic/shift/compare
	ClassIntMul
	ClassIntDiv
	ClassFPALU // fadd/fsub/fmul/fneg/fabs/min/max/cvt
	ClassFPDiv // fdiv/sqrt
	ClassMath  // libm-grade intrinsics (exp/log/trig/pow)
	ClassLoad
	ClassStore
	ClassBranch
	ClassCall
	ClassMemo // AxMemo instructions' pipeline slot
	ClassNop

	NumClasses
)

var classNames = [NumClasses]string{
	"move", "int-alu", "int-mul", "int-div", "fp-alu", "fp-div",
	"math", "load", "store", "branch", "call", "memo", "nop",
}

// String returns the class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class?"
}

// Model holds the per-event energy constants in picojoules.
type Model struct {
	// FrontEndPJ is charged once per dynamic instruction: fetch
	// (including L1I), decode, issue and commit.
	FrontEndPJ float64
	// ExecPJ is the execution-unit energy per instruction class.
	ExecPJ [NumClasses]float64
	// Cache and memory access energies.
	L1DPJ  float64
	L2PJ   float64
	DRAMPJ float64
	// Memoization-unit event energies (Table 5).
	CRCPerBytePJ float64
	HVRPJ        float64
	L1LUTPJ      float64
	L2LUTPJ      float64 // an L2 LUT access is an L2-cache-array access
	MonitorPJ    float64
	// StaticPJPerCycle charges leakage and clock-tree power per core
	// cycle, so runtime reduction also reduces energy.
	StaticPJPerCycle float64
}

// Default returns the model used by all experiments.  L1LUTPJ is filled
// per configuration with memo.LUTCost; this default assumes the 8 KB LUT.
func Default() Model {
	m := Model{
		FrontEndPJ:       45,
		L1DPJ:            22,
		L2PJ:             95,
		DRAMPJ:           2100,
		CRCPerBytePJ:     memo.CostCRC32Unit.EnergyPJ / 4, // unit absorbs 4B per pipelined op
		HVRPJ:            memo.CostHashReg.EnergyPJ,
		L1LUTPJ:          memo.CostLUT8KB.EnergyPJ,
		L2LUTPJ:          95,
		MonitorPJ:        0.5,
		StaticPJPerCycle: 28,
	}
	m.ExecPJ = [NumClasses]float64{
		ClassMove:   2,
		ClassIntALU: 5,
		ClassIntMul: 16,
		ClassIntDiv: 42,
		ClassFPALU:  13,
		ClassFPDiv:  48,
		ClassMath:   95,
		ClassLoad:   6, // AGU + LSU control; array energy charged via L1DPJ
		ClassStore:  6,
		ClassBranch: 3,
		ClassCall:   8,
		ClassMemo:   3,
		ClassNop:    1,
	}
	return m
}

// ForL1LUT returns a copy of the model with the L1 LUT access energy set
// from the Table 5 row matching the configured LUT size.
func (m Model) ForL1LUT(sizeBytes int) Model {
	m.L1LUTPJ = memo.LUTCost(sizeBytes).EnergyPJ
	return m
}

// Counts aggregates the priced events of one run.
type Counts struct {
	Insns        [NumClasses]uint64
	L1DAccesses  uint64
	L2Accesses   uint64
	DRAMAccesses uint64

	CRCBytes    uint64
	HVRAccesses uint64
	L1LUTOps    uint64
	L2LUTOps    uint64
	MonitorOps  uint64

	Cycles uint64
}

// Breakdown is the priced result in picojoules.
type Breakdown struct {
	FrontEndPJ float64
	ExecPJ     float64
	CachePJ    float64
	DRAMPJ     float64
	MemoPJ     float64
	StaticPJ   float64
}

// TotalPJ sums all components.
func (b Breakdown) TotalPJ() float64 {
	return b.FrontEndPJ + b.ExecPJ + b.CachePJ + b.DRAMPJ + b.MemoPJ + b.StaticPJ
}

// Price converts event counts into an energy breakdown.
func (m Model) Price(c Counts) Breakdown {
	var b Breakdown
	for cls, n := range c.Insns {
		b.FrontEndPJ += m.FrontEndPJ * float64(n)
		b.ExecPJ += m.ExecPJ[cls] * float64(n)
	}
	b.CachePJ = m.L1DPJ*float64(c.L1DAccesses) + m.L2PJ*float64(c.L2Accesses)
	b.DRAMPJ = m.DRAMPJ * float64(c.DRAMAccesses)
	b.MemoPJ = m.CRCPerBytePJ*float64(c.CRCBytes) +
		m.HVRPJ*float64(c.HVRAccesses) +
		m.L1LUTPJ*float64(c.L1LUTOps) +
		m.L2LUTPJ*float64(c.L2LUTOps) +
		m.MonitorPJ*float64(c.MonitorOps)
	b.StaticPJ = m.StaticPJPerCycle * float64(c.Cycles)
	return b
}
