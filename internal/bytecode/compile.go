package bytecode

import (
	"fmt"

	"axmemo/internal/ir"
)

// Compile lowers a program into flat bytecode.  The program is
// (re-)validated first: the lowering trusts the same field bounds the
// interpreter does.  costs resolves static timing metadata; nil yields
// zero costs (sufficient for disassembly, not for execution).
func Compile(p *ir.Program, costs CostModel) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if costs == nil {
		costs = func(ir.Op) Cost { return Cost{} }
	}
	bp := &Program{IR: p, Funcs: make(map[string]*Func, len(p.Funcs))}
	for name, f := range p.Funcs {
		bp.Funcs[name] = compileFunc(f, costs)
	}
	// Second pass: resolve call targets across functions.
	for _, bf := range bp.Funcs {
		for i := range bf.Insns {
			bi := &bf.Insns[i]
			if bi.Op == Call {
				callee, ok := bp.Funcs[bi.Src.Callee]
				if !ok {
					// The validator guarantees callees exist.
					return nil, fmt.Errorf("bytecode: call to undefined function %q", bi.Src.Callee)
				}
				bi.Callee = callee
			}
		}
	}
	if ef := p.EntryFunc(); ef != nil {
		bp.Entry = bp.Funcs[ef.Name]
	}
	return bp, nil
}

// compileFunc flattens one function: emit one instruction per source
// instruction, recording each block's start pc, then patch branch
// targets from block indices to pcs.
func compileFunc(f *ir.Function, costs CostModel) *Func {
	bf := &Func{IR: f, BlockPC: make([]int32, len(f.Blocks))}
	for _, b := range f.Blocks {
		bf.BlockPC[b.Index] = int32(len(bf.Insns))
		for i := range b.Instrs {
			bf.Insns = append(bf.Insns, lower(&b.Instrs[i], b.Index, int32(f.NumRegs()), costs))
		}
	}
	for i := range bf.Insns {
		bi := &bf.Insns[i]
		switch bi.Op {
		case Jmp:
			bi.T0 = bf.BlockPC[bi.T0]
		case Br:
			bi.T0 = bf.BlockPC[bi.T0]
			bi.T1 = bf.BlockPC[bi.T1]
		}
	}
	return bf
}

// lower translates one instruction, seeding it with the source, cost,
// and memo-accounting metadata.  ready is the function's always-ready
// slot, which every unused source operand names.
func lower(in *ir.Instr, blockIdx int, ready int32, costs CostModel) Insn {
	c := costs(in.Op)
	bi := Insn{
		Src:   in,
		Lat:   c.Lat,
		Occ:   1,
		FU:    c.FU,
		Class: c.Class,
		// The Stats.MemoInsns accounting rule (Fig. 8): AxMemo
		// instructions except ld_crc, plus compiler-inserted
		// auxiliaries.
		MemoTag: in.Op.IsMemo() && in.Op != ir.LdCRC || in.Aux,
		A:       ready,
		B:       ready,
	}
	if !c.Pipelined {
		bi.Occ = c.Lat
	}
	switch in.Op {
	case ir.Nop:
		bi.Op = Nop
	case ir.Const:
		bi.Op = Const
		bi.Dst, bi.Imm = int32(in.Dst), in.Imm
	case ir.Mov:
		bi.Op = Mov
		bi.Dst, bi.A = int32(in.Dst), int32(in.A)
	case ir.Cvt:
		bi.Op = FirstCvt + Op(in.SrcType)*4 + Op(in.Type)
		bi.Dst, bi.A = int32(in.Dst), int32(in.A)
	case ir.Load:
		bi.Op = Load
		bi.Dst, bi.A = int32(in.Dst), int32(in.A)
		bi.Imm, bi.Type = in.Imm, in.Type
	case ir.Store:
		bi.Op = Store
		bi.A, bi.B = int32(in.A), int32(in.B)
		bi.Imm, bi.Type = in.Imm, in.Type
	case ir.Jmp:
		bi.Op = Jmp
		bi.T0 = int32(in.Blk0)
	case ir.Br:
		bi.Op = Br
		bi.A = int32(in.A)
		bi.T0, bi.T1 = int32(in.Blk0), int32(in.Blk1)
		bi.Backward = in.Blk0 <= blockIdx
	case ir.Ret:
		bi.Op = Ret
		bi.Args = in.Args
	case ir.Call:
		bi.Op = Call
		bi.Args, bi.Rets = in.Args, in.Rets
	case ir.LdCRC:
		bi.Op = LdCRC
		bi.Dst, bi.A = int32(in.Dst), int32(in.A)
		bi.Imm, bi.Type = in.Imm, in.Type
		bi.LUT, bi.Trunc = in.LUT, in.Trunc
	case ir.RegCRC:
		bi.Op = RegCRC
		bi.A = int32(in.A)
		bi.Type = in.Type
		bi.LUT, bi.Trunc = in.LUT, in.Trunc
	case ir.Lookup:
		bi.Op = Lookup
		bi.Dst, bi.Hit = int32(in.Dst), int32(in.B)
		bi.LUT = in.LUT
	case ir.Update:
		bi.Op = Update
		bi.A = int32(in.A)
		bi.LUT = in.LUT
	case ir.Invalidate:
		bi.Op = Invalidate
		bi.LUT = in.LUT
	default:
		// Compute: pre-split, or replayed generically (FallbackOp);
		// either way the sources are the tree interpreter's uses.
		bi.Op = splitOp(in)
		bi.Dst, bi.A = int32(in.Dst), int32(in.A)
		if in.Op.IsBinary() {
			bi.B = int32(in.B)
		}
	}
	return bi
}

// splitOp maps a compute (op, type) pair to its pre-split opcode, or
// FallbackOp when the combination has none (the tree interpreter
// rejects it at run time; FallbackOp reproduces that exactly).
func splitOp(in *ir.Instr) Op {
	op, t := in.Op, in.Type
	switch {
	case op >= ir.Add && op <= ir.Shr:
		switch t {
		case ir.I32:
			return AddI32 + Op(op-ir.Add)
		case ir.I64:
			return AddI64 + Op(op-ir.Add)
		}
	case op >= ir.CmpEQ && op <= ir.CmpGE:
		return FirstCmp + Op(t)*6 + Op(op-ir.CmpEQ)
	case op >= ir.FAdd && op <= ir.FDiv:
		if t.IsFloat() {
			return fFamily(t) + Op(op-ir.FAdd)
		}
	case op == ir.FMin, op == ir.FMax:
		if t.IsFloat() {
			return fFamily(t) + 4 + Op(op-ir.FMin)
		}
	case op == ir.Atan2:
		if t.IsFloat() {
			return fFamily(t) + 6
		}
	case op == ir.Pow:
		if t.IsFloat() {
			return fFamily(t) + 7
		}
	case op == ir.FNeg, op == ir.FAbs:
		if t.IsFloat() {
			return unFamily(t) + Op(op-ir.FNeg)
		}
	case op >= ir.Sqrt && op <= ir.Atan:
		if t.IsFloat() {
			return unFamily(t) + 2 + Op(op-ir.Sqrt)
		}
	case op == ir.Floor:
		if t.IsFloat() {
			return unFamily(t) + 11
		}
	}
	return FallbackOp
}

func fFamily(t ir.Type) Op {
	if t == ir.F32 {
		return FAddF32
	}
	return FAddF64
}

func unFamily(t ir.Type) Op {
	if t == ir.F32 {
		return FNegF32
	}
	return FNegF64
}
