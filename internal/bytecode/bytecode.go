// Package bytecode lowers a validated ir.Program into a flat,
// pre-resolved instruction stream for the timing simulator's compiled
// execution engine (internal/cpu's default), in the style of
// starlark-go's internal/compile → interp.go pipeline.
//
// The lowering is a one-shot compile at machine construction:
//
//   - Blocks flatten into one instruction array per function; branch
//     targets become instruction indices (no per-step block/pc pair).
//   - Operand registers are pre-resolved to raw int32 indices into the
//     frame's register file.  Every instruction names exactly two
//     source registers, A and B; unused ones name an always-ready slot
//     past the function's registers (FrameRegs), so the executor
//     computes operand readiness the same way for every opcode.
//   - Type classes are pre-split: add.i32 and fadd.f32 are distinct
//     opcodes, so the executor never branches on t.IsFloat() per step.
//   - Every source instruction lowers to exactly one bytecode
//     instruction, so one executor step retires one instruction: the
//     same round-robin slot the tree interpreter gives it, which is what
//     lets SMT threads and multi-core clusters share issue slots, caches
//     and the memoization unit on either engine.
//   - Static timing metadata (latency, unit occupancy, functional
//     unit, energy class) is resolved through a CostModel and stored on
//     the instruction, replacing the executor's per-step opTable
//     lookups.
//
// Opcode/type combinations with no pre-split opcode (e.g. sqrt.i32,
// which the validator admits and the tree interpreter rejects at run
// time) lower to FallbackOp: the executor replays them through the tree
// evaluation path so both engines fail with byte-identical errors.
package bytecode

import "axmemo/internal/ir"

// Op is a bytecode opcode.  Type-split families are contiguous so the
// executor dispatches hot compute with two range compares.
type Op uint8

// Opcodes.  The groupings (and their order) are load-bearing: see the
// First*/Last* markers below.
const (
	Invalid Op = iota

	Nop
	Const // Dst = Imm
	Mov   // Dst = regs[A]

	// Binary compute, FirstBin..LastBin: integer ALU by width, float
	// arithmetic by width, then compares by type.  All write Dst from
	// regs[A] op regs[B].
	AddI32
	SubI32
	MulI32
	SDivI32
	SRemI32
	AndI32
	OrI32
	XorI32
	ShlI32
	ShrI32

	AddI64
	SubI64
	MulI64
	SDivI64
	SRemI64
	AndI64
	OrI64
	XorI64
	ShlI64
	ShrI64

	FAddF32
	FSubF32
	FMulF32
	FDivF32
	FMinF32
	FMaxF32
	Atan2F32
	PowF32

	FAddF64
	FSubF64
	FMulF64
	FDivF64
	FMinF64
	FMaxF64
	Atan2F64
	PowF64

	CmpEQI32
	CmpNEI32
	CmpLTI32
	CmpLEI32
	CmpGTI32
	CmpGEI32

	CmpEQI64
	CmpNEI64
	CmpLTI64
	CmpLEI64
	CmpGTI64
	CmpGEI64

	CmpEQF32
	CmpNEF32
	CmpLTF32
	CmpLEF32
	CmpGTF32
	CmpGEF32

	CmpEQF64
	CmpNEF64
	CmpLTF64
	CmpLEF64
	CmpGTF64
	CmpGEF64

	// Unary float compute, FirstUn..LastUn.
	FNegF32
	FAbsF32
	SqrtF32
	ExpF32
	LogF32
	SinF32
	CosF32
	TanF32
	AsinF32
	AcosF32
	AtanF32
	FloorF32

	FNegF64
	FAbsF64
	SqrtF64
	ExpF64
	LogF64
	SinF64
	CosF64
	TanF64
	AsinF64
	AcosF64
	AtanF64
	FloorF64

	// Conversions, FirstCvt..LastCvt, laid out FirstCvt + from*4 + to
	// in ir.Type order (i32, i64, f32, f64).
	CvtI32I32
	CvtI32I64
	CvtI32F32
	CvtI32F64
	CvtI64I32
	CvtI64I64
	CvtI64F32
	CvtI64F64
	CvtF32I32
	CvtF32I64
	CvtF32F32
	CvtF32F64
	CvtF64I32
	CvtF64I64
	CvtF64F32
	CvtF64F64

	// Memory, control flow, and the AxMemo ISA extensions.
	Load  // Dst = mem[regs[A]+Imm] at Type
	Store // mem[regs[A]+Imm] = regs[B] at Type
	Jmp   // goto pc T0
	Br    // if regs[A] != 0 goto pc T0 else pc T1
	Ret   // return Args...
	Call  // Rets... = Callee(Args...)
	LdCRC
	RegCRC
	Lookup
	Update
	Invalidate

	// FallbackOp replays the source ir.Instr through the tree
	// interpreter's evaluation path (opcode/type combinations with no
	// split opcode; they all fail at run time exactly as the tree does).
	FallbackOp

	opCount
)

// Family range markers.
const (
	FirstBin = AddI32
	LastBin  = CmpGEF64
	FirstCmp = CmpEQI32
	FirstUn  = FNegF32
	LastUn   = FloorF64
	FirstCvt = CvtI32I32
	LastCvt  = CvtF64F64
)

// Cost is the static timing/energy metadata of one source opcode, as
// resolved by the executor's cost model.
type Cost struct {
	// Lat is the result latency in cycles (0 = resolved dynamically,
	// e.g. loads from the cache hierarchy).
	Lat uint8
	// FU identifies the functional unit (internal/cpu's FU enum).
	FU uint8
	// Pipelined reports whether the unit accepts a new op next cycle.
	Pipelined bool
	// Class is the energy accounting class (internal/energy's Class).
	Class uint8
}

// CostModel resolves the static metadata of a source opcode.  The cpu
// package passes an adapter over its private latency table; a nil model
// (disassembly-only use) yields zero costs.
type CostModel func(op ir.Op) Cost

// Insn is one flat bytecode instruction.  Which fields are meaningful
// depends on Op, except the issue fields (FU, Occ, A, B, Args), which
// every instruction carries so the executor issues it without looking
// at Op.
type Insn struct {
	Op Op

	// Pre-resolved cost metadata (see Cost).  Lat is the result latency
	// of compute opcodes and the retire latency of the other opcodes
	// with a static one (0 for loads and memo opcodes, whose latency is
	// dynamic); Occ is how many cycles the instruction holds its
	// functional unit: 1 when the unit is pipelined, Lat when it is not.
	Lat   uint8
	Occ   uint8
	FU    uint8
	Class uint8
	// MemoTag reports whether the instruction counts toward
	// Stats.MemoInsns ((IsMemo && != LdCRC) || Aux, the Fig. 8 rule).
	MemoTag bool

	// Backward marks a Br whose taken target does not lie forward of
	// its source block — the BTFN predictor's predict-taken case.
	Backward bool

	LUT, Trunc uint8
	Type       ir.Type // Load/Store/LdCRC/RegCRC element type

	// Register operands as raw indices into the frame register file.
	// A and B are the source operands; an instruction with fewer than
	// two names its function's always-ready slot (see FrameRegs) in
	// the unused ones, so the executor reads both unconditionally.
	// Dst is the destination and Hit the second destination of Lookup,
	// its hit-flag register.
	Dst, A, B, Hit int32
	// T0 and T1 are resolved branch-target pcs (Jmp: T0; Br: taken →
	// T0, not taken → T1).
	T0, T1 int32

	Imm uint64

	// Args are the source registers of Call (arguments) and Ret
	// (values), and Rets the registers receiving Call's results; both
	// alias the source instruction's lists and are empty for every
	// other opcode.
	Args, Rets []ir.Reg
	// Callee is the resolved Call target.
	Callee *Func

	// Src is the source instruction: trace hooks, error messages, and
	// the disassembler's source IR index all refer to it.
	Src *ir.Instr
}

// FrameRegs returns the register file size an executor frame of f
// needs: f's registers plus one always-ready slot at index f.NumRegs(),
// which no instruction writes and which unused source operands name.
func FrameRegs(f *ir.Function) int { return f.NumRegs() + 1 }

// Func is one compiled function.
type Func struct {
	// IR is the source function (register file size, params).
	IR *ir.Function
	// Insns is the flat instruction stream.
	Insns []Insn
	// BlockPC maps each source block index to the pc of its first
	// instruction.
	BlockPC []int32
}

// Program is a compiled program.
type Program struct {
	// IR is the source program.
	IR *ir.Program
	// Funcs maps function names to their compiled bodies.
	Funcs map[string]*Func
	// Entry is the compiled entry function (nil if the program has
	// none).
	Entry *Func
}

// opNames is the disassembly mnemonic table, composed in init from the
// component names so the type-split families stay consistent.
var opNames [opCount]string

func init() {
	opNames[Invalid] = "invalid"
	opNames[Nop] = "nop"
	opNames[Const] = "const"
	opNames[Mov] = "mov"
	intBin := []string{"add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "shr"}
	for i, n := range intBin {
		opNames[AddI32+Op(i)] = n + ".i32"
		opNames[AddI64+Op(i)] = n + ".i64"
	}
	fBin := []string{"fadd", "fsub", "fmul", "fdiv", "fmin", "fmax", "atan2", "pow"}
	for i, n := range fBin {
		opNames[FAddF32+Op(i)] = n + ".f32"
		opNames[FAddF64+Op(i)] = n + ".f64"
	}
	cmps := []string{"cmpeq", "cmpne", "cmplt", "cmple", "cmpgt", "cmpge"}
	types := []string{"i32", "i64", "f32", "f64"}
	for ti, tn := range types {
		for ci, cn := range cmps {
			opNames[FirstCmp+Op(ti*6+ci)] = cn + "." + tn
		}
	}
	un := []string{"fneg", "fabs", "sqrt", "exp", "log", "sin", "cos", "tan", "asin", "acos", "atan", "floor"}
	for i, n := range un {
		opNames[FNegF32+Op(i)] = n + ".f32"
		opNames[FNegF64+Op(i)] = n + ".f64"
	}
	for fi, fn := range types {
		for ti, tn := range types {
			opNames[FirstCvt+Op(fi*4+ti)] = "cvt." + fn + "." + tn
		}
	}
	opNames[Load] = "load"
	opNames[Store] = "store"
	opNames[Jmp] = "jmp"
	opNames[Br] = "br"
	opNames[Ret] = "ret"
	opNames[Call] = "call"
	opNames[LdCRC] = "ld_crc"
	opNames[RegCRC] = "reg_crc"
	opNames[Lookup] = "lookup"
	opNames[Update] = "update"
	opNames[Invalidate] = "invalidate"
	opNames[FallbackOp] = "fallback"
}

// String returns the disassembly mnemonic.
func (o Op) String() string {
	if o < opCount && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}
