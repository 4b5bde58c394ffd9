package cpu

import (
	"fmt"
	"math"

	"axmemo/internal/bytecode"
	"axmemo/internal/ir"
)

// Engine selects the execution engine.  Both engines implement the same
// architectural and timing semantics; the bytecode engine runs every
// simulation — one thread, SMT or multi-core — and the tree interpreter
// is retained as the differential oracle the tests compare it against.
type Engine uint8

const (
	// EngineBytecode executes a flat pre-compiled instruction stream
	// (internal/bytecode).  The default.
	EngineBytecode Engine = iota
	// EngineTree walks the IR block structure directly.
	EngineTree
)

func (e Engine) String() string {
	if e == EngineTree {
		return "tree"
	}
	return "bytecode"
}

// bcCost adapts the latency table to the bytecode compiler's cost model.
func bcCost(op ir.Op) bytecode.Cost {
	info := opTable[op]
	return bytecode.Cost{
		Lat:       uint8(info.lat),
		FU:        uint8(info.fu),
		Pipelined: info.pipelined,
		Class:     uint8(info.class),
	}
}

// step executes one instruction of thread t on the engine bound to the
// thread's current frame.
func (m *Machine) step(t *threadState) error {
	if t.cur.bf != nil {
		return m.stepBC(t)
	}
	return m.stepTree(t)
}

// retireBC is retire with the class/memo metadata pre-resolved at
// compile time.
func (m *Machine) retireBC(done uint64, class uint8, memoTag bool) {
	if done > m.cycle {
		m.cycle = done
	}
	m.insns++
	m.ecounts.Insns[class]++
	if h := m.hot; h != nil {
		h.insns[class].Inc()
	}
	if memoTag {
		m.memoInsns++
	}
}

// srcErr wraps a functional fault with its source instruction, exactly
// as the tree interpreter formats it.
func srcErr(in *ir.Instr, err error) error {
	return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
}

func noUnitErr(in *ir.Instr) error {
	return fmt.Errorf("cpu: %s executed without a memoization unit", in)
}

// errCyclef formats the cycle-budget error.
func (m *Machine) errCyclef() error {
	return fmt.Errorf("%w (%d)", ErrCycleBudget, m.cfg.MaxCycles)
}

// overBudget reports whether the run has exhausted either budget: one
// compare each, with an unlimited cycle budget pre-mapped to the
// maximum cycle count (Machine.cycleLimit).
func (m *Machine) overBudget() bool {
	return m.insns >= m.cfg.MaxInsns || m.cycle > m.cycleLimit
}

// budgetErr names the budget overBudget tripped on; the instruction
// budget is checked first, as in the tree interpreter.
func (m *Machine) budgetErr() error {
	if m.insns >= m.cfg.MaxInsns {
		return m.errLimitf()
	}
	return m.errCyclef()
}

// stepBC executes one bytecode instruction of thread t.  Every issue,
// retire, hook, and budget check mirrors the tree interpreter
// instruction for instruction; only dispatch overhead differs.
func (m *Machine) stepBC(t *threadState) error {
	if m.overBudget() {
		return m.budgetErr()
	}
	f := t.cur
	bi := &f.bf.Insns[f.bpc]
	f.bpc++
	op := bi.Op

	// Hot compute families dispatch on range before the opcode switch.
	switch {
	case op >= bytecode.FirstBin && op <= bytecode.LastBin:
		ready := f.ready[bi.A]
		if r := f.ready[bi.B]; r > ready {
			ready = r
		}
		tt := m.issueAt(t, ready, FU(bi.FU), bi.Pipe, int(bi.Lat))
		raw, err := execBin(op, f.regs[bi.A], f.regs[bi.B])
		if err != nil {
			return srcErr(bi.Src, err)
		}
		done := tt + uint64(bi.Lat)
		f.regs[bi.Dst] = raw
		f.ready[bi.Dst] = done
		m.retireBC(done, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, false)
		return nil

	case op >= bytecode.FirstUn && op <= bytecode.LastUn:
		tt := m.issueAt(t, f.ready[bi.A], FU(bi.FU), bi.Pipe, int(bi.Lat))
		raw := execUn(op, f.regs[bi.A])
		done := tt + uint64(bi.Lat)
		f.regs[bi.Dst] = raw
		f.ready[bi.Dst] = done
		m.retireBC(done, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, false)
		return nil

	case op >= bytecode.FirstCvt && op <= bytecode.LastCvt:
		tt := m.issueAt(t, f.ready[bi.A], FU(bi.FU), bi.Pipe, int(bi.Lat))
		raw := execCvt(op, f.regs[bi.A])
		done := tt + uint64(bi.Lat)
		f.regs[bi.Dst] = raw
		f.ready[bi.Dst] = done
		m.retireBC(done, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, false)
		return nil
	}

	switch op {
	case bytecode.Nop:
		tt := m.issueAt(t, 0, FU(bi.FU), true, 1)
		m.retireBC(tt+1, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, false)

	case bytecode.Const:
		tt := m.issueAt(t, 0, FU(bi.FU), true, 1)
		f.regs[bi.Dst] = bi.Imm
		f.ready[bi.Dst] = tt + 1
		m.retireBC(tt+1, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, false)

	case bytecode.Mov:
		tt := m.issueAt(t, f.ready[bi.A], FU(bi.FU), true, 1)
		f.regs[bi.Dst] = f.regs[bi.A]
		f.ready[bi.Dst] = tt + 1
		m.retireBC(tt+1, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, false)

	case bytecode.Load:
		tt := m.issueAt(t, f.ready[bi.A], FU(bi.FU), true, 1)
		addr := uint64(int64(f.regs[bi.A]) + int64(bi.Imm))
		acc := m.hier.Access(addr, false)
		raw, err := m.mem.LoadRaw(bi.Type, addr)
		if err != nil {
			return srcErr(bi.Src, err)
		}
		done := tt + uint64(acc.Latency)
		f.regs[bi.Dst] = raw
		f.ready[bi.Dst] = done
		m.retireBC(done, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, addr, true, false)

	case bytecode.Store:
		ready := f.ready[bi.A]
		if r := f.ready[bi.B]; r > ready {
			ready = r
		}
		tt := m.issueAt(t, ready, FU(bi.FU), true, 1)
		addr := uint64(int64(f.regs[bi.A]) + int64(bi.Imm))
		m.hier.Access(addr, true)
		if err := m.mem.StoreRaw(bi.Type, addr, f.regs[bi.B]); err != nil {
			return srcErr(bi.Src, err)
		}
		m.retireBC(tt+1, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, addr, true, false)

	case bytecode.Jmp:
		tt := m.issueAt(t, 0, FU(bi.FU), true, 1)
		m.retireBC(tt+1, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, true)
		t.nextIssue = tt + 1
		f.bpc = bi.T0

	case bytecode.Br:
		tt := m.issueAt(t, f.ready[bi.A], FU(bi.FU), true, 1)
		taken := f.regs[bi.A] != 0
		m.retireBC(tt+1, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, taken)
		if taken != (m.cfg.PredictBTFN && bi.Backward) {
			t.nextIssue = tt + 1 + uint64(m.cfg.BranchPenalty)
		}
		if taken {
			f.bpc = bi.T0
		} else {
			f.bpc = bi.T1
		}

	case bytecode.Ret:
		var ready uint64
		for _, r := range bi.Args {
			if f.ready[r] > ready {
				ready = f.ready[r]
			}
		}
		tt := m.issueAt(t, ready, FU(bi.FU), true, 1)
		m.retireBC(tt+1, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, true)
		t.nextIssue = tt + uint64(m.cfg.CallOverhead)
		if f.caller == nil {
			t.rets = make([]uint64, len(bi.Args))
			for i, r := range bi.Args {
				t.rets[i] = f.regs[r]
			}
			t.done = true
			t.cur = nil
			m.freeFrame(f)
			return nil
		}
		caller := f.caller
		for i, r := range f.retTo {
			caller.regs[r] = f.regs[bi.Args[i]]
			caller.ready[r] = t.nextIssue
		}
		t.cur = caller
		m.freeFrame(f)

	case bytecode.Call:
		var ready uint64
		for _, r := range bi.Args {
			if f.ready[r] > ready {
				ready = f.ready[r]
			}
		}
		tt := m.issueAt(t, ready, FU(bi.FU), true, 1)
		m.retireBC(tt+uint64(bi.Lat), bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, true)
		t.nextIssue = tt + uint64(m.cfg.CallOverhead)
		callee := bi.Callee
		nf := m.newFrame(callee.IR)
		nf.bf = callee
		for i, p := range callee.IR.Params {
			nf.regs[p] = f.regs[bi.Args[i]]
			nf.ready[p] = t.nextIssue
		}
		nf.caller = f
		nf.retTo = bi.Rets
		t.cur = nf

	case bytecode.LdCRC:
		tt := m.issueAt(t, f.ready[bi.A], FU(bi.FU), true, 1)
		addr := uint64(int64(f.regs[bi.A]) + int64(bi.Imm))
		acc := m.hier.Access(addr, false)
		raw, err := m.mem.LoadRaw(bi.Type, addr)
		if err != nil {
			return srcErr(bi.Src, err)
		}
		f.regs[bi.Dst] = raw
		dataReady := tt + uint64(acc.Latency)
		f.ready[bi.Dst] = dataReady
		switch {
		case m.memo != nil:
			if _, err := m.memo.Feed(bi.LUT, t.id, raw, bi.Type.Size(), uint(bi.Trunc), dataReady); err != nil {
				return srcErr(bi.Src, err)
			}
		case m.soft != nil:
			m.softFeed(t, bi.Src, raw)
		default:
			return noUnitErr(bi.Src)
		}
		m.retireBC(dataReady, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, addr, true, false)

	case bytecode.RegCRC:
		tt := m.issueAt(t, f.ready[bi.A], FU(bi.FU), true, 1)
		switch {
		case m.memo != nil:
			if _, err := m.memo.Feed(bi.LUT, t.id, f.regs[bi.A], bi.Type.Size(), uint(bi.Trunc), tt+1); err != nil {
				return srcErr(bi.Src, err)
			}
		case m.soft != nil:
			m.softFeed(t, bi.Src, f.regs[bi.A])
		default:
			return noUnitErr(bi.Src)
		}
		m.retireBC(tt+1, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, 0, false, false)

	case bytecode.Lookup:
		tt := m.issueAt(t, 0, FU(bi.FU), true, 1)
		switch {
		case m.memo != nil:
			res, err := m.memo.Lookup(bi.LUT, t.id, tt)
			if err != nil {
				return srcErr(bi.Src, err)
			}
			f.regs[bi.Dst] = res.Data
			f.regs[bi.B] = boolToRaw(res.Hit)
			f.ready[bi.Dst] = res.DoneAt
			f.ready[bi.B] = res.DoneAt
			if h := m.hot; h != nil {
				h.lookupLat.Observe(float64(res.DoneAt - tt))
			}
			m.retireBC(res.DoneAt, bi.Class, bi.MemoTag)
			m.hook(t, f, bi.Src, 0, false, res.Hit)
		case m.soft != nil:
			m.softLookup(t, f, bi.Src, tt)
			m.retireBC(f.ready[bi.Dst], bi.Class, bi.MemoTag)
			m.hook(t, f, bi.Src, 0, false, f.regs[bi.B] != 0)
		default:
			return noUnitErr(bi.Src)
		}

	case bytecode.Update:
		tt := m.issueAt(t, f.ready[bi.A], FU(bi.FU), true, 1)
		switch {
		case m.memo != nil:
			done, err := m.memo.Update(bi.LUT, t.id, f.regs[bi.A], tt)
			if err != nil {
				return srcErr(bi.Src, err)
			}
			m.retireBC(done, bi.Class, bi.MemoTag)
		case m.soft != nil:
			m.softUpdate(t, f, bi.Src)
			m.retireBC(tt+1, bi.Class, bi.MemoTag)
		default:
			return noUnitErr(bi.Src)
		}
		m.hook(t, f, bi.Src, 0, false, false)

	case bytecode.Invalidate:
		tt := m.issueAt(t, 0, FU(bi.FU), true, 1)
		switch {
		case m.memo != nil:
			cost, err := m.memo.Invalidate(bi.LUT)
			if err != nil {
				return srcErr(bi.Src, err)
			}
			t.nextIssue = tt + uint64(cost)
			m.retireBC(tt+uint64(cost), bi.Class, bi.MemoTag)
		case m.soft != nil:
			m.softInvalidate(t, bi.Src)
			m.retireBC(tt+1, bi.Class, bi.MemoTag)
		default:
			return noUnitErr(bi.Src)
		}
		m.hook(t, f, bi.Src, 0, false, false)

	case bytecode.FallbackOp:
		return m.stepFallback(t, f, bi.Src)

	default:
		return fmt.Errorf("cpu: bytecode op %s unimplemented", op)
	}
	return nil
}

// stepFallback replays an opcode/type combination with no split opcode
// through the tree interpreter's generic compute path (they all fail
// functionally; the timing and error must match the tree exactly).
func (m *Machine) stepFallback(t *threadState, f *frame, in *ir.Instr) error {
	info := opTable[in.Op]
	ready := m.opsReady(f, in)
	tt := m.issueAt(t, ready, info.fu, info.pipelined, info.lat)
	var raw uint64
	var err error
	if in.Op.IsBinary() {
		raw, err = evalBin(in.Op, in.Type, f.regs[in.A], f.regs[in.B])
	} else {
		raw, err = evalUn(in.Op, in.Type, f.regs[in.A])
	}
	if err != nil {
		return srcErr(in, err)
	}
	f.regs[in.Dst] = raw
	f.ready[in.Dst] = tt + uint64(info.lat)
	m.retire(f.ready[in.Dst], in)
	m.hook(t, f, in, 0, false, false)
	return nil
}

// execBin evaluates a pre-split binary opcode.  Each case mirrors the
// corresponding evalBin formula literally (float32 computes in float64
// and rounds) so results are bit-identical to the tree engine.
func execBin(op bytecode.Op, a, b uint64) (uint64, error) {
	switch op {
	case bytecode.AddI32:
		return fromI32(i32v(a) + i32v(b)), nil
	case bytecode.SubI32:
		return fromI32(i32v(a) - i32v(b)), nil
	case bytecode.MulI32:
		return fromI32(i32v(a) * i32v(b)), nil
	case bytecode.SDivI32:
		if i32v(b) == 0 {
			return 0, fmt.Errorf("cpu: i32 division by zero")
		}
		return fromI32(i32v(a) / i32v(b)), nil
	case bytecode.SRemI32:
		if i32v(b) == 0 {
			return 0, fmt.Errorf("cpu: i32 remainder by zero")
		}
		return fromI32(i32v(a) % i32v(b)), nil
	case bytecode.AndI32:
		return fromI32(i32v(a) & i32v(b)), nil
	case bytecode.OrI32:
		return fromI32(i32v(a) | i32v(b)), nil
	case bytecode.XorI32:
		return fromI32(i32v(a) ^ i32v(b)), nil
	case bytecode.ShlI32:
		return fromI32(i32v(a) << (uint32(i32v(b)) & 31)), nil
	case bytecode.ShrI32:
		return fromI32(i32v(a) >> (uint32(i32v(b)) & 31)), nil

	case bytecode.AddI64:
		return fromI64(i64v(a) + i64v(b)), nil
	case bytecode.SubI64:
		return fromI64(i64v(a) - i64v(b)), nil
	case bytecode.MulI64:
		return fromI64(i64v(a) * i64v(b)), nil
	case bytecode.SDivI64:
		if i64v(b) == 0 {
			return 0, fmt.Errorf("cpu: i64 division by zero")
		}
		return fromI64(i64v(a) / i64v(b)), nil
	case bytecode.SRemI64:
		if i64v(b) == 0 {
			return 0, fmt.Errorf("cpu: i64 remainder by zero")
		}
		return fromI64(i64v(a) % i64v(b)), nil
	case bytecode.AndI64:
		return fromI64(i64v(a) & i64v(b)), nil
	case bytecode.OrI64:
		return fromI64(i64v(a) | i64v(b)), nil
	case bytecode.XorI64:
		return fromI64(i64v(a) ^ i64v(b)), nil
	case bytecode.ShlI64:
		return fromI64(i64v(a) << (uint64(i64v(b)) & 63)), nil
	case bytecode.ShrI64:
		return fromI64(i64v(a) >> (uint64(i64v(b)) & 63)), nil

	case bytecode.FAddF32:
		return fromF32(float32(float64(f32(a)) + float64(f32(b)))), nil
	case bytecode.FSubF32:
		return fromF32(float32(float64(f32(a)) - float64(f32(b)))), nil
	case bytecode.FMulF32:
		return fromF32(float32(float64(f32(a)) * float64(f32(b)))), nil
	case bytecode.FDivF32:
		return fromF32(float32(float64(f32(a)) / float64(f32(b)))), nil
	case bytecode.FMinF32:
		return fromF32(float32(math.Min(float64(f32(a)), float64(f32(b))))), nil
	case bytecode.FMaxF32:
		return fromF32(float32(math.Max(float64(f32(a)), float64(f32(b))))), nil
	case bytecode.Atan2F32:
		return fromF32(float32(math.Atan2(float64(f32(a)), float64(f32(b))))), nil
	case bytecode.PowF32:
		return fromF32(float32(math.Pow(float64(f32(a)), float64(f32(b))))), nil

	case bytecode.FAddF64:
		return fromF64(f64v(a) + f64v(b)), nil
	case bytecode.FSubF64:
		return fromF64(f64v(a) - f64v(b)), nil
	case bytecode.FMulF64:
		return fromF64(f64v(a) * f64v(b)), nil
	case bytecode.FDivF64:
		return fromF64(f64v(a) / f64v(b)), nil
	case bytecode.FMinF64:
		return fromF64(math.Min(f64v(a), f64v(b))), nil
	case bytecode.FMaxF64:
		return fromF64(math.Max(f64v(a), f64v(b))), nil
	case bytecode.Atan2F64:
		return fromF64(math.Atan2(f64v(a), f64v(b))), nil
	case bytecode.PowF64:
		return fromF64(math.Pow(f64v(a), f64v(b))), nil

	case bytecode.CmpEQI32:
		return boolToRaw(i32v(a) == i32v(b)), nil
	case bytecode.CmpNEI32:
		return boolToRaw(i32v(a) != i32v(b)), nil
	case bytecode.CmpLTI32:
		return boolToRaw(i32v(a) < i32v(b)), nil
	case bytecode.CmpLEI32:
		return boolToRaw(i32v(a) <= i32v(b)), nil
	case bytecode.CmpGTI32:
		return boolToRaw(i32v(a) > i32v(b)), nil
	case bytecode.CmpGEI32:
		return boolToRaw(i32v(a) >= i32v(b)), nil

	case bytecode.CmpEQI64:
		return boolToRaw(i64v(a) == i64v(b)), nil
	case bytecode.CmpNEI64:
		return boolToRaw(i64v(a) != i64v(b)), nil
	case bytecode.CmpLTI64:
		return boolToRaw(i64v(a) < i64v(b)), nil
	case bytecode.CmpLEI64:
		return boolToRaw(i64v(a) <= i64v(b)), nil
	case bytecode.CmpGTI64:
		return boolToRaw(i64v(a) > i64v(b)), nil
	case bytecode.CmpGEI64:
		return boolToRaw(i64v(a) >= i64v(b)), nil

	case bytecode.CmpEQF32:
		return boolToRaw(f32(a) == f32(b)), nil
	case bytecode.CmpNEF32:
		return boolToRaw(f32(a) != f32(b)), nil
	case bytecode.CmpLTF32:
		return boolToRaw(f32(a) < f32(b)), nil
	case bytecode.CmpLEF32:
		return boolToRaw(f32(a) <= f32(b)), nil
	case bytecode.CmpGTF32:
		return boolToRaw(f32(a) > f32(b)), nil
	case bytecode.CmpGEF32:
		return boolToRaw(f32(a) >= f32(b)), nil

	case bytecode.CmpEQF64:
		return boolToRaw(f64v(a) == f64v(b)), nil
	case bytecode.CmpNEF64:
		return boolToRaw(f64v(a) != f64v(b)), nil
	case bytecode.CmpLTF64:
		return boolToRaw(f64v(a) < f64v(b)), nil
	case bytecode.CmpLEF64:
		return boolToRaw(f64v(a) <= f64v(b)), nil
	case bytecode.CmpGTF64:
		return boolToRaw(f64v(a) > f64v(b)), nil
	case bytecode.CmpGEF64:
		return boolToRaw(f64v(a) >= f64v(b)), nil
	}
	return 0, fmt.Errorf("cpu: bad binary bytecode op %s", op)
}

// execUn evaluates a pre-split unary opcode.  All split unary opcodes
// are float-typed and never fail (domain errors yield NaN, as in the
// tree engine).
func execUn(op bytecode.Op, a uint64) uint64 {
	if op >= bytecode.FNegF64 {
		x := f64v(a)
		var v float64
		switch op {
		case bytecode.FNegF64:
			v = -x
		case bytecode.FAbsF64:
			v = math.Abs(x)
		case bytecode.SqrtF64:
			v = math.Sqrt(x)
		case bytecode.ExpF64:
			v = math.Exp(x)
		case bytecode.LogF64:
			v = math.Log(x)
		case bytecode.SinF64:
			v = math.Sin(x)
		case bytecode.CosF64:
			v = math.Cos(x)
		case bytecode.TanF64:
			v = math.Tan(x)
		case bytecode.AsinF64:
			v = math.Asin(x)
		case bytecode.AcosF64:
			v = math.Acos(x)
		case bytecode.AtanF64:
			v = math.Atan(x)
		case bytecode.FloorF64:
			v = math.Floor(x)
		}
		return fromF64(v)
	}
	x := float64(f32(a))
	var v float64
	switch op {
	case bytecode.FNegF32:
		v = -x
	case bytecode.FAbsF32:
		v = math.Abs(x)
	case bytecode.SqrtF32:
		v = math.Sqrt(x)
	case bytecode.ExpF32:
		v = math.Exp(x)
	case bytecode.LogF32:
		v = math.Log(x)
	case bytecode.SinF32:
		v = math.Sin(x)
	case bytecode.CosF32:
		v = math.Cos(x)
	case bytecode.TanF32:
		v = math.Tan(x)
	case bytecode.AsinF32:
		v = math.Asin(x)
	case bytecode.AcosF32:
		v = math.Acos(x)
	case bytecode.AtanF32:
		v = math.Atan(x)
	case bytecode.FloorF32:
		v = math.Floor(x)
	}
	return fromF32(float32(v))
}

// execCvt evaluates a pre-split conversion opcode (every source/dest
// combination is valid post-validation, mirroring evalCvt).
func execCvt(op bytecode.Op, raw uint64) uint64 {
	switch op {
	case bytecode.CvtI32I32:
		return fromI32(i32v(raw))
	case bytecode.CvtI32I64:
		return fromI64(int64(i32v(raw)))
	case bytecode.CvtI32F32:
		return fromF32(float32(i32v(raw)))
	case bytecode.CvtI32F64:
		return fromF64(float64(i32v(raw)))
	case bytecode.CvtI64I32:
		return fromI32(int32(i64v(raw)))
	case bytecode.CvtI64I64:
		return fromI64(i64v(raw))
	case bytecode.CvtI64F32:
		return fromF32(float32(i64v(raw)))
	case bytecode.CvtI64F64:
		return fromF64(float64(i64v(raw)))
	case bytecode.CvtF32I32:
		return fromI32(int32(f32(raw)))
	case bytecode.CvtF32I64:
		return fromI64(int64(f32(raw)))
	case bytecode.CvtF32F32:
		return fromF32(f32(raw))
	case bytecode.CvtF32F64:
		return fromF64(float64(f32(raw)))
	case bytecode.CvtF64I32:
		return fromI32(int32(f64v(raw)))
	case bytecode.CvtF64I64:
		return fromI64(int64(f64v(raw)))
	case bytecode.CvtF64F32:
		return fromF32(float32(f64v(raw)))
	case bytecode.CvtF64F64:
		return fromF64(f64v(raw))
	}
	return 0
}
