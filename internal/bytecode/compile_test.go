package bytecode

import (
	"strings"
	"testing"

	"axmemo/internal/ir"
)

// buildLoop builds a two-function program with a compare+branch loop
// header, a load+convert pair, and a call.
func buildLoop() *ir.Program {
	p := ir.NewProgram("loop")

	k := p.NewFunc("widen", []ir.Type{ir.I64}, []ir.Type{ir.F64})
	kb := k.NewBlock("entry")
	bu := ir.At(k, kb)
	v := bu.Load(ir.F32, k.Params[0], 0)
	w := bu.Cvt(ir.F32, ir.F64, v)
	bu.Ret(w)

	f := p.NewFunc("loop", []ir.Type{ir.I32}, []ir.Type{ir.I32})
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	body := f.NewBlock("body")
	done := f.NewBlock("done")

	bu = ir.At(f, entry)
	i := bu.ConstI32(0)
	one := bu.ConstI32(1)
	addr := bu.ConstI64(0)
	bu.Jmp(loop)

	bu.SetBlock(loop)
	c := bu.Bin(ir.CmpLT, ir.I32, i, f.Params[0])
	bu.Br(c, body, done)

	bu.SetBlock(body)
	bu.Call("widen", 1, addr)
	i2 := bu.Bin(ir.Add, ir.I32, i, one)
	bu.MovTo(ir.I32, i, i2)
	bu.Jmp(loop)

	bu.SetBlock(done)
	bu.Ret(i)
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

func TestCompileFusesAndResolves(t *testing.T) {
	bp, err := Compile(buildLoop(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Entry == nil || bp.Entry.IR.Name != "loop" {
		t.Fatalf("entry = %+v", bp.Entry)
	}
	// Every source instruction lowers to exactly one instruction, in
	// order, so one executor step retires one source instruction.
	for name, bf := range bp.Funcs {
		var src []*ir.Instr
		for _, b := range bf.IR.Blocks {
			for i := range b.Instrs {
				src = append(src, &b.Instrs[i])
			}
		}
		if len(bf.Insns) != len(src) {
			t.Fatalf("%s: %d insns for %d source instructions", name, len(bf.Insns), len(src))
		}
		for i := range bf.Insns {
			if bf.Insns[i].Src != src[i] {
				t.Errorf("%s pc %d: lowered from the wrong source instruction", name, i)
			}
		}
	}
	lf := bp.Funcs["loop"]

	var br, call *Insn
	for i := range lf.Insns {
		bi := &lf.Insns[i]
		switch bi.Op {
		case Br:
			br = bi
		case Call:
			call = bi
		}
	}
	if br == nil {
		t.Fatal("conditional branch not lowered to Br")
	}
	// Taken target (body) lies forward of the loop header: not a
	// BTFN-predicted backward branch.
	if br.Backward {
		t.Error("forward conditional marked backward")
	}
	// Targets must be pcs into the flat stream, bounded by the stream.
	for _, pc := range []int32{br.T0, br.T1} {
		if pc < 0 || int(pc) >= len(lf.Insns) {
			t.Errorf("branch target pc %d out of range", pc)
		}
	}
	if call == nil || call.Callee == nil || call.Callee.IR.Name != "widen" {
		t.Fatalf("call not resolved: %+v", call)
	}

	// BlockPC maps every source block to a valid pc.
	for idx, pc := range lf.BlockPC {
		if pc < 0 || int(pc) > len(lf.Insns) {
			t.Errorf("block %d pc %d out of range", idx, pc)
		}
	}
}

func TestBackwardBranchMarked(t *testing.T) {
	// do-while shape: the conditional back-edge branches to its own
	// block, which BTFN predicts taken.
	p := ir.NewProgram("spin")
	f := p.NewFunc("spin", []ir.Type{ir.I32}, []ir.Type{ir.I32})
	body := f.NewBlock("body")
	done := f.NewBlock("done")
	bu := ir.At(f, body)
	one := bu.ConstI32(1)
	n2 := bu.Bin(ir.Sub, ir.I32, f.Params[0], one)
	bu.MovTo(ir.I32, f.Params[0], n2)
	c := bu.Bin(ir.CmpGT, ir.I32, n2, one)
	bu.Br(c, body, done)
	bu.SetBlock(done)
	bu.Ret(n2)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	bp, err := Compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var seen bool
	for i := range bp.Entry.Insns {
		bi := &bp.Entry.Insns[i]
		if bi.Op == Br {
			seen = true
			if !bi.Backward {
				t.Error("loop back-edge not marked backward")
			}
		}
	}
	if !seen {
		t.Fatal("back-edge branch not lowered to Br")
	}
}

func TestSplitOpFallback(t *testing.T) {
	for _, tc := range []struct {
		op   ir.Op
		t    ir.Type
		want Op
	}{
		{ir.Add, ir.I32, AddI32},
		{ir.Shr, ir.I64, ShrI64},
		{ir.Add, ir.F32, FallbackOp}, // int op at float type: runtime error
		{ir.FAdd, ir.F64, FAddF64},
		{ir.FAdd, ir.I32, FallbackOp}, // float op at int type
		{ir.FMax, ir.F32, FMaxF32},
		{ir.Pow, ir.F64, PowF64},
		{ir.CmpGE, ir.F32, CmpGEF32},
		{ir.CmpEQ, ir.I64, CmpEQI64},
		{ir.Sqrt, ir.F64, SqrtF64},
		{ir.Sqrt, ir.I32, FallbackOp}, // the classic validator-admitted trap
		{ir.Floor, ir.F32, FloorF32},
		{ir.FNeg, ir.F64, FNegF64},
		{ir.Atan, ir.F32, AtanF32},
	} {
		if got := splitOp(&ir.Instr{Op: tc.op, Type: tc.t}); got != tc.want {
			t.Errorf("splitOp(%s.%s) = %s, want %s", tc.op, tc.t, got, tc.want)
		}
	}
}

func TestOpNamesComplete(t *testing.T) {
	for o := Op(0); o < opCount; o++ {
		if o.String() == "op?" || o.String() == "" {
			t.Errorf("opcode %d has no name", o)
		}
	}
	if opCount.String() != "op?" {
		t.Error("out-of-range opcode should render op?")
	}
	// Layout invariant the compiler's conversion lowering relies on.
	if FirstCvt+Op(ir.F32)*4+Op(ir.F64) != CvtF32F64 {
		t.Error("Cvt block layout broken")
	}
}

func TestDisassemble(t *testing.T) {
	bp, err := Compile(buildLoop(), nil)
	if err != nil {
		t.Fatal(err)
	}
	listing := bp.Disassemble()
	for _, want := range []string{
		"func loop:",
		"func widen:",
		"cmplt.i32",
		"br ",
		"load ",
		"cvt.f32.f64",
		"widen(",
		"; ir=",
		"b2:",
		"@",
	} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
	// The entry function leads the listing.
	if !strings.HasPrefix(listing, "func loop:") {
		t.Errorf("entry function not first:\n%s", listing)
	}
}
