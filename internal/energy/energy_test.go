package energy

import (
	"testing"

	"axmemo/internal/memo"
)

// TotalInsns sums the per-class instruction counts.
func (c *Counts) TotalInsns() uint64 {
	var n uint64
	for _, v := range c.Insns {
		n += v
	}
	return n
}

func TestFrontEndDominatesExec(t *testing.T) {
	// The model must preserve the paper's premise: for a typical ALU
	// instruction, the execution unit is a small fraction of total
	// instruction energy (the von Neumann overhead dominates).
	m := Default()
	if m.ExecPJ[ClassIntALU] > 0.25*m.FrontEndPJ {
		t.Errorf("int ALU exec %.1f pJ vs front end %.1f pJ: overhead no longer dominates",
			m.ExecPJ[ClassIntALU], m.FrontEndPJ)
	}
}

func TestPriceSingleEvents(t *testing.T) {
	m := Default()
	var c Counts
	c.Insns[ClassIntALU] = 10
	b := m.Price(c)
	if b.FrontEndPJ != 10*m.FrontEndPJ {
		t.Errorf("front end = %v, want %v", b.FrontEndPJ, 10*m.FrontEndPJ)
	}
	if b.ExecPJ != 10*m.ExecPJ[ClassIntALU] {
		t.Errorf("exec = %v", b.ExecPJ)
	}
	if b.CachePJ != 0 || b.DRAMPJ != 0 || b.MemoPJ != 0 || b.StaticPJ != 0 {
		t.Errorf("unexpected non-zero components: %+v", b)
	}
}

func TestPriceMemoryEvents(t *testing.T) {
	m := Default()
	c := Counts{L1DAccesses: 3, L2Accesses: 2, DRAMAccesses: 1, Cycles: 100}
	b := m.Price(c)
	wantCache := 3*m.L1DPJ + 2*m.L2PJ
	if b.CachePJ != wantCache {
		t.Errorf("cache = %v, want %v", b.CachePJ, wantCache)
	}
	if b.DRAMPJ != m.DRAMPJ {
		t.Errorf("dram = %v, want %v", b.DRAMPJ, m.DRAMPJ)
	}
	if b.StaticPJ != 100*m.StaticPJPerCycle {
		t.Errorf("static = %v", b.StaticPJ)
	}
}

func TestPriceMemoEvents(t *testing.T) {
	m := Default()
	c := Counts{CRCBytes: 8, HVRAccesses: 2, L1LUTOps: 1, L2LUTOps: 1, MonitorOps: 4}
	b := m.Price(c)
	want := 8*m.CRCPerBytePJ + 2*m.HVRPJ + m.L1LUTPJ + m.L2LUTPJ + 4*m.MonitorPJ
	if b.MemoPJ != want {
		t.Errorf("memo = %v, want %v", b.MemoPJ, want)
	}
	if b.TotalPJ() != want {
		t.Errorf("total = %v, want %v", b.TotalPJ(), want)
	}
}

func TestForL1LUT(t *testing.T) {
	m := Default().ForL1LUT(16 << 10)
	if m.L1LUTPJ != memo.CostLUT16KB.EnergyPJ {
		t.Errorf("16KB LUT energy = %v, want %v", m.L1LUTPJ, memo.CostLUT16KB.EnergyPJ)
	}
	m = Default().ForL1LUT(4 << 10)
	if m.L1LUTPJ != memo.CostLUT4KB.EnergyPJ {
		t.Errorf("4KB LUT energy = %v", m.L1LUTPJ)
	}
}

func TestTotalInsns(t *testing.T) {
	var c Counts
	c.Insns[ClassLoad] = 5
	c.Insns[ClassBranch] = 7
	if c.TotalInsns() != 12 {
		t.Errorf("TotalInsns = %d, want 12", c.TotalInsns())
	}
}

func TestClassNames(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "" || c.String() == "class?" {
			t.Errorf("class %d has no name", c)
		}
	}
}

func TestMemoLookupCheaperThanReplacedWork(t *testing.T) {
	// The economics of the paper: a hit (CRC feed of a 24-byte input +
	// HVR + one LUT access + a handful of memo-instruction slots) must
	// cost far less than the ~40-instruction Blackscholes kernel it
	// replaces.
	m := Default()
	hit := Counts{CRCBytes: 24, HVRAccesses: 7, L1LUTOps: 1}
	hit.Insns[ClassMemo] = 8
	hit.Insns[ClassBranch] = 1

	var kernel Counts
	kernel.Insns[ClassMath] = 8
	kernel.Insns[ClassFPALU] = 20
	kernel.Insns[ClassFPDiv] = 2
	kernel.Insns[ClassIntALU] = 10

	if hitPJ, kernelPJ := m.Price(hit).TotalPJ(), m.Price(kernel).TotalPJ(); hitPJ >= kernelPJ/2 {
		t.Errorf("memoized hit %.1f pJ vs kernel %.1f pJ: lookup not clearly cheaper", hitPJ, kernelPJ)
	}
}
