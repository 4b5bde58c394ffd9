package cpu

import (
	"axmemo/internal/energy"
	"axmemo/internal/ir"
)

// FU identifies a functional unit of the modeled HPI core (Table 3: two
// integer ALUs, one multiplier, one divider, one FP unit, one load/store
// unit per core).
type FU uint8

// Functional units.
const (
	FUALU FU = iota
	FUMul
	FUDiv
	FUFP
	FULdSt
	FUBranch
	FUMemo

	NumFUs
)

// fuWidth is the scoreboard width: the most instances of any one unit
// in fuCount.  Machine.fuFree holds exactly this many slots per unit.
const fuWidth = 2

// fuCount is the number of instances of each unit (Table 3).
var fuCount = [NumFUs]int{
	FUALU:    2,
	FUMul:    1,
	FUDiv:    1,
	FUFP:     1,
	FULdSt:   1,
	FUBranch: 1,
	FUMemo:   1,
}

// opInfo is the per-opcode timing/energy metadata.
type opInfo struct {
	lat       int // result latency in cycles (0 = resolved elsewhere)
	fu        FU
	pipelined bool // can the FU accept a new op next cycle?
	class     energy.Class
}

// opTable is the HPI-flavoured latency model.  Long-latency math
// intrinsics reflect libm software sequences on an in-order core; they
// are exactly the operations whose removal memoization monetizes.
var opTable = [64]opInfo{
	ir.Nop:   {1, FUALU, true, energy.ClassNop},
	ir.Const: {1, FUALU, true, energy.ClassMove},
	ir.Mov:   {1, FUALU, true, energy.ClassMove},

	ir.Add:  {1, FUALU, true, energy.ClassIntALU},
	ir.Sub:  {1, FUALU, true, energy.ClassIntALU},
	ir.Mul:  {3, FUMul, true, energy.ClassIntMul},
	ir.SDiv: {12, FUDiv, false, energy.ClassIntDiv},
	ir.SRem: {12, FUDiv, false, energy.ClassIntDiv},
	ir.And:  {1, FUALU, true, energy.ClassIntALU},
	ir.Or:   {1, FUALU, true, energy.ClassIntALU},
	ir.Xor:  {1, FUALU, true, energy.ClassIntALU},
	ir.Shl:  {1, FUALU, true, energy.ClassIntALU},
	ir.Shr:  {1, FUALU, true, energy.ClassIntALU},

	ir.FAdd: {4, FUFP, true, energy.ClassFPALU},
	ir.FSub: {4, FUFP, true, energy.ClassFPALU},
	ir.FMul: {4, FUFP, true, energy.ClassFPALU},
	ir.FDiv: {15, FUFP, false, energy.ClassFPDiv},
	ir.FNeg: {2, FUFP, true, energy.ClassFPALU},
	ir.FAbs: {2, FUFP, true, energy.ClassFPALU},
	ir.FMin: {2, FUFP, true, energy.ClassFPALU},
	ir.FMax: {2, FUFP, true, energy.ClassFPALU},

	ir.Sqrt:  {17, FUFP, false, energy.ClassFPDiv},
	ir.Exp:   {40, FUFP, false, energy.ClassMath},
	ir.Log:   {40, FUFP, false, energy.ClassMath},
	ir.Sin:   {45, FUFP, false, energy.ClassMath},
	ir.Cos:   {45, FUFP, false, energy.ClassMath},
	ir.Tan:   {55, FUFP, false, energy.ClassMath},
	ir.Asin:  {50, FUFP, false, energy.ClassMath},
	ir.Acos:  {50, FUFP, false, energy.ClassMath},
	ir.Atan:  {50, FUFP, false, energy.ClassMath},
	ir.Atan2: {55, FUFP, false, energy.ClassMath},
	ir.Pow:   {70, FUFP, false, energy.ClassMath},
	ir.Floor: {3, FUFP, true, energy.ClassFPALU},

	ir.CmpEQ: {1, FUALU, true, energy.ClassIntALU},
	ir.CmpNE: {1, FUALU, true, energy.ClassIntALU},
	ir.CmpLT: {1, FUALU, true, energy.ClassIntALU},
	ir.CmpLE: {1, FUALU, true, energy.ClassIntALU},
	ir.CmpGT: {1, FUALU, true, energy.ClassIntALU},
	ir.CmpGE: {1, FUALU, true, energy.ClassIntALU},

	ir.Cvt: {3, FUFP, true, energy.ClassFPALU},

	ir.Load:  {0 /* from hierarchy */, FULdSt, true, energy.ClassLoad},
	ir.Store: {1, FULdSt, true, energy.ClassStore},

	ir.Jmp:  {1, FUBranch, true, energy.ClassBranch},
	ir.Br:   {1, FUBranch, true, energy.ClassBranch},
	ir.Ret:  {1, FUBranch, true, energy.ClassBranch},
	ir.Call: {2, FUBranch, true, energy.ClassCall},

	// Memo instruction latencies come from Table 4; the table entries
	// here cover the issue slot, the rest is resolved by the unit.
	ir.LdCRC:      {0, FULdSt, true, energy.ClassLoad},
	ir.RegCRC:     {1, FUMemo, true, energy.ClassMemo},
	ir.Lookup:     {0, FUMemo, true, energy.ClassMemo},
	ir.Update:     {0, FUMemo, true, energy.ClassMemo},
	ir.Invalidate: {0, FUMemo, true, energy.ClassMemo},
}

// Weight returns the DDDG vertex weight (estimated latency in cycles) of
// an opcode, used by the compiler analysis (Eq. 1's vertex weights).
// Loads are weighted at an L1-hit latency.
func Weight(op ir.Op) int {
	info := opTable[op]
	if op == ir.Load || op == ir.LdCRC {
		return 2
	}
	if info.lat == 0 {
		return 2
	}
	return info.lat
}
