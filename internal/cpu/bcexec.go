package cpu

import (
	"errors"
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
// thread's current frame: the round-robin slot SMT threads and cluster
// cores take turns in.
func (m *Machine) step(t *threadState) error {
	if t.cur.bf != nil {
		return m.runBC(t, 1)
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

// Integer division faults, worded as the tree interpreter's evalBin
// words them.
var (
	errDivI32 = errors.New("cpu: i32 division by zero")
	errRemI32 = errors.New("cpu: i32 remainder by zero")
	errDivI64 = errors.New("cpu: i64 division by zero")
	errRemI64 = errors.New("cpu: i64 remainder by zero")
)

// runBC executes up to n bytecode instructions of thread t, stopping
// early when the thread returns from its entry function.  A lone thread
// runs to completion in one call; SMT threads and cluster cores call it
// with n = 1 (step), so every configuration runs this one loop.
//
// The loop keeps the current frame's instruction stream, pc, registers
// and scoreboard in locals, reloaded only on Call and Ret.  Each
// instruction passes one issue site — issueAt's scoreboard logic
// inline, reading the two source operands every instruction names (see
// bytecode.Insn) — then one dispatch on the opcode, then one retire.
// Every issue, retire, hook, budget check and error mirrors the tree
// interpreter (stepTree) instruction for instruction; the differential
// suite compares the two event for event.
func (m *Machine) runBC(t *threadState, n int) error {
	f := t.cur
	code, pc := f.bf.Insns, f.bpc
	regs, ready := f.regs, f.ready
	var err error
run:
	for ; n > 0; n-- {
		if m.overBudget() {
			err = m.budgetErr()
			break
		}
		bi := &code[pc]
		pc++

		// Issue: in order per thread, at most IssueWidth per cycle
		// across threads, stalling on operands and on the earliest-free
		// instance of the functional unit.
		opsReady := ready[bi.A]
		if r := ready[bi.B]; r > opsReady {
			opsReady = r
		}
		for _, r := range bi.Args {
			if ready[r] > opsReady {
				opsReady = ready[r]
			}
		}
		tt := t.nextIssue
		if opsReady > tt {
			m.stallOperand += opsReady - tt
			tt = opsReady
		}
		free := &m.fuFree[bi.FU]
		best := 0
		if free[1] < free[0] {
			best = 1
		}
		if free[best] > tt {
			m.stallStructural += free[best] - tt
			tt = free[best]
		}
		if tt > m.lastIssue {
			m.lastIssue = tt
			m.slots = 1
		} else {
			// This cycle already issued (or another thread's cursor
			// is past it): co-issue if a slot is left.
			tt = m.lastIssue
			if m.slots >= m.cfg.IssueWidth {
				tt++
				m.stallIssue++
				m.lastIssue = tt
				m.slots = 1
			} else {
				m.slots++
			}
		}
		free[best] = tt + uint64(bi.Occ)
		t.nextIssue = tt

		// Execute.  Compute opcodes set v and share the register write
		// below; the others write their own results and jump past it.
		a, b := regs[bi.A], regs[bi.B]
		done := tt + uint64(bi.Lat)
		var v, addr uint64
		var hasAddr, taken bool
		switch bi.Op {
		case bytecode.Const:
			v = bi.Imm
		case bytecode.Mov:
			v = a

		case bytecode.AddI32:
			v = fromI32(i32v(a) + i32v(b))
		case bytecode.SubI32:
			v = fromI32(i32v(a) - i32v(b))
		case bytecode.MulI32:
			v = fromI32(i32v(a) * i32v(b))
		case bytecode.SDivI32:
			if i32v(b) == 0 {
				err = srcErr(bi.Src, errDivI32)
				break run
			}
			v = fromI32(i32v(a) / i32v(b))
		case bytecode.SRemI32:
			if i32v(b) == 0 {
				err = srcErr(bi.Src, errRemI32)
				break run
			}
			v = fromI32(i32v(a) % i32v(b))
		case bytecode.AndI32:
			v = fromI32(i32v(a) & i32v(b))
		case bytecode.OrI32:
			v = fromI32(i32v(a) | i32v(b))
		case bytecode.XorI32:
			v = fromI32(i32v(a) ^ i32v(b))
		case bytecode.ShlI32:
			v = fromI32(i32v(a) << (uint32(i32v(b)) & 31))
		case bytecode.ShrI32:
			v = fromI32(i32v(a) >> (uint32(i32v(b)) & 31))

		case bytecode.AddI64:
			v = fromI64(i64v(a) + i64v(b))
		case bytecode.SubI64:
			v = fromI64(i64v(a) - i64v(b))
		case bytecode.MulI64:
			v = fromI64(i64v(a) * i64v(b))
		case bytecode.SDivI64:
			if i64v(b) == 0 {
				err = srcErr(bi.Src, errDivI64)
				break run
			}
			v = fromI64(i64v(a) / i64v(b))
		case bytecode.SRemI64:
			if i64v(b) == 0 {
				err = srcErr(bi.Src, errRemI64)
				break run
			}
			v = fromI64(i64v(a) % i64v(b))
		case bytecode.AndI64:
			v = fromI64(i64v(a) & i64v(b))
		case bytecode.OrI64:
			v = fromI64(i64v(a) | i64v(b))
		case bytecode.XorI64:
			v = fromI64(i64v(a) ^ i64v(b))
		case bytecode.ShlI64:
			v = fromI64(i64v(a) << (uint64(i64v(b)) & 63))
		case bytecode.ShrI64:
			v = fromI64(i64v(a) >> (uint64(i64v(b)) & 63))

		// Float32 computes in float64 and rounds, exactly as evalBin
		// and evalUn do, so results are bit-identical to the tree.
		case bytecode.FAddF32:
			v = fromF32(float32(float64(f32(a)) + float64(f32(b))))
		case bytecode.FSubF32:
			v = fromF32(float32(float64(f32(a)) - float64(f32(b))))
		case bytecode.FMulF32:
			v = fromF32(float32(float64(f32(a)) * float64(f32(b))))
		case bytecode.FDivF32:
			v = fromF32(float32(float64(f32(a)) / float64(f32(b))))
		case bytecode.FMinF32:
			v = fromF32(float32(math.Min(float64(f32(a)), float64(f32(b)))))
		case bytecode.FMaxF32:
			v = fromF32(float32(math.Max(float64(f32(a)), float64(f32(b)))))
		case bytecode.Atan2F32:
			v = fromF32(float32(math.Atan2(float64(f32(a)), float64(f32(b)))))
		case bytecode.PowF32:
			v = fromF32(float32(math.Pow(float64(f32(a)), float64(f32(b)))))

		case bytecode.FAddF64:
			v = fromF64(f64v(a) + f64v(b))
		case bytecode.FSubF64:
			v = fromF64(f64v(a) - f64v(b))
		case bytecode.FMulF64:
			v = fromF64(f64v(a) * f64v(b))
		case bytecode.FDivF64:
			v = fromF64(f64v(a) / f64v(b))
		case bytecode.FMinF64:
			v = fromF64(math.Min(f64v(a), f64v(b)))
		case bytecode.FMaxF64:
			v = fromF64(math.Max(f64v(a), f64v(b)))
		case bytecode.Atan2F64:
			v = fromF64(math.Atan2(f64v(a), f64v(b)))
		case bytecode.PowF64:
			v = fromF64(math.Pow(f64v(a), f64v(b)))

		case bytecode.CmpEQI32:
			v = boolToRaw(i32v(a) == i32v(b))
		case bytecode.CmpNEI32:
			v = boolToRaw(i32v(a) != i32v(b))
		case bytecode.CmpLTI32:
			v = boolToRaw(i32v(a) < i32v(b))
		case bytecode.CmpLEI32:
			v = boolToRaw(i32v(a) <= i32v(b))
		case bytecode.CmpGTI32:
			v = boolToRaw(i32v(a) > i32v(b))
		case bytecode.CmpGEI32:
			v = boolToRaw(i32v(a) >= i32v(b))

		case bytecode.CmpEQI64:
			v = boolToRaw(i64v(a) == i64v(b))
		case bytecode.CmpNEI64:
			v = boolToRaw(i64v(a) != i64v(b))
		case bytecode.CmpLTI64:
			v = boolToRaw(i64v(a) < i64v(b))
		case bytecode.CmpLEI64:
			v = boolToRaw(i64v(a) <= i64v(b))
		case bytecode.CmpGTI64:
			v = boolToRaw(i64v(a) > i64v(b))
		case bytecode.CmpGEI64:
			v = boolToRaw(i64v(a) >= i64v(b))

		case bytecode.CmpEQF32:
			v = boolToRaw(f32(a) == f32(b))
		case bytecode.CmpNEF32:
			v = boolToRaw(f32(a) != f32(b))
		case bytecode.CmpLTF32:
			v = boolToRaw(f32(a) < f32(b))
		case bytecode.CmpLEF32:
			v = boolToRaw(f32(a) <= f32(b))
		case bytecode.CmpGTF32:
			v = boolToRaw(f32(a) > f32(b))
		case bytecode.CmpGEF32:
			v = boolToRaw(f32(a) >= f32(b))

		case bytecode.CmpEQF64:
			v = boolToRaw(f64v(a) == f64v(b))
		case bytecode.CmpNEF64:
			v = boolToRaw(f64v(a) != f64v(b))
		case bytecode.CmpLTF64:
			v = boolToRaw(f64v(a) < f64v(b))
		case bytecode.CmpLEF64:
			v = boolToRaw(f64v(a) <= f64v(b))
		case bytecode.CmpGTF64:
			v = boolToRaw(f64v(a) > f64v(b))
		case bytecode.CmpGEF64:
			v = boolToRaw(f64v(a) >= f64v(b))

		// Unary float opcodes never fail: domain errors yield NaN, as
		// in the tree engine.
		case bytecode.FNegF32:
			v = fromF32(float32(-float64(f32(a))))
		case bytecode.FAbsF32:
			v = fromF32(float32(math.Abs(float64(f32(a)))))
		case bytecode.SqrtF32:
			v = fromF32(float32(math.Sqrt(float64(f32(a)))))
		case bytecode.ExpF32:
			v = fromF32(float32(math.Exp(float64(f32(a)))))
		case bytecode.LogF32:
			v = fromF32(float32(math.Log(float64(f32(a)))))
		case bytecode.SinF32:
			v = fromF32(float32(math.Sin(float64(f32(a)))))
		case bytecode.CosF32:
			v = fromF32(float32(math.Cos(float64(f32(a)))))
		case bytecode.TanF32:
			v = fromF32(float32(math.Tan(float64(f32(a)))))
		case bytecode.AsinF32:
			v = fromF32(float32(math.Asin(float64(f32(a)))))
		case bytecode.AcosF32:
			v = fromF32(float32(math.Acos(float64(f32(a)))))
		case bytecode.AtanF32:
			v = fromF32(float32(math.Atan(float64(f32(a)))))
		case bytecode.FloorF32:
			v = fromF32(float32(math.Floor(float64(f32(a)))))

		case bytecode.FNegF64:
			v = fromF64(-f64v(a))
		case bytecode.FAbsF64:
			v = fromF64(math.Abs(f64v(a)))
		case bytecode.SqrtF64:
			v = fromF64(math.Sqrt(f64v(a)))
		case bytecode.ExpF64:
			v = fromF64(math.Exp(f64v(a)))
		case bytecode.LogF64:
			v = fromF64(math.Log(f64v(a)))
		case bytecode.SinF64:
			v = fromF64(math.Sin(f64v(a)))
		case bytecode.CosF64:
			v = fromF64(math.Cos(f64v(a)))
		case bytecode.TanF64:
			v = fromF64(math.Tan(f64v(a)))
		case bytecode.AsinF64:
			v = fromF64(math.Asin(f64v(a)))
		case bytecode.AcosF64:
			v = fromF64(math.Acos(f64v(a)))
		case bytecode.AtanF64:
			v = fromF64(math.Atan(f64v(a)))
		case bytecode.FloorF64:
			v = fromF64(math.Floor(f64v(a)))

		// Conversions: every source/destination pair is valid after
		// validation, as in evalCvt.
		case bytecode.CvtI32I32:
			v = fromI32(i32v(a))
		case bytecode.CvtI32I64:
			v = fromI64(int64(i32v(a)))
		case bytecode.CvtI32F32:
			v = fromF32(float32(i32v(a)))
		case bytecode.CvtI32F64:
			v = fromF64(float64(i32v(a)))
		case bytecode.CvtI64I32:
			v = fromI32(int32(i64v(a)))
		case bytecode.CvtI64I64:
			v = fromI64(i64v(a))
		case bytecode.CvtI64F32:
			v = fromF32(float32(i64v(a)))
		case bytecode.CvtI64F64:
			v = fromF64(float64(i64v(a)))
		case bytecode.CvtF32I32:
			v = fromI32(int32(f32(a)))
		case bytecode.CvtF32I64:
			v = fromI64(int64(f32(a)))
		case bytecode.CvtF32F32:
			v = fromF32(f32(a))
		case bytecode.CvtF32F64:
			v = fromF64(float64(f32(a)))
		case bytecode.CvtF64I32:
			v = fromI32(int32(f64v(a)))
		case bytecode.CvtF64I64:
			v = fromI64(int64(f64v(a)))
		case bytecode.CvtF64F32:
			v = fromF32(float32(f64v(a)))
		case bytecode.CvtF64F64:
			v = fromF64(f64v(a))

		case bytecode.FallbackOp:
			// An opcode/type pair with no split opcode: evaluate it
			// as the tree does (every such pair fails there).
			var e error
			if in := bi.Src; in.Op.IsBinary() {
				v, e = evalBin(in.Op, in.Type, a, b)
			} else {
				v, e = evalUn(in.Op, in.Type, a)
			}
			if e != nil {
				err = srcErr(bi.Src, e)
				break run
			}

		case bytecode.Load:
			addr, hasAddr = uint64(int64(a)+int64(bi.Imm)), true
			acc := m.hier.Access(addr, false)
			raw, e := m.mem.LoadRaw(bi.Type, addr)
			if e != nil {
				err = srcErr(bi.Src, e)
				break run
			}
			v, done = raw, tt+uint64(acc.Latency)

		case bytecode.Nop:
			goto retire

		case bytecode.Store:
			addr, hasAddr = uint64(int64(a)+int64(bi.Imm)), true
			m.hier.Access(addr, true)
			if e := m.mem.StoreRaw(bi.Type, addr, b); e != nil {
				err = srcErr(bi.Src, e)
				break run
			}
			goto retire

		case bytecode.Jmp:
			taken = true
			t.nextIssue = tt + 1
			pc = bi.T0
			goto retire

		case bytecode.Br:
			taken = a != 0
			if taken != (m.cfg.PredictBTFN && bi.Backward) {
				t.nextIssue = tt + 1 + uint64(m.cfg.BranchPenalty)
			}
			if taken {
				pc = bi.T0
			} else {
				pc = bi.T1
			}
			goto retire

		case bytecode.Ret:
			m.retireBC(done, bi.Class, bi.MemoTag)
			m.hook(t, f, bi.Src, 0, false, true)
			t.nextIssue = tt + uint64(m.cfg.CallOverhead)
			if f.caller == nil {
				t.rets = make([]uint64, len(bi.Args))
				for i, r := range bi.Args {
					t.rets[i] = regs[r]
				}
				t.done = true
				t.cur = nil
				m.freeFrame(f)
				return nil
			}
			caller := f.caller
			for i, r := range f.retTo {
				caller.regs[r] = regs[bi.Args[i]]
				caller.ready[r] = t.nextIssue
			}
			m.freeFrame(f)
			f = caller
			t.cur = f
			code, pc = f.bf.Insns, f.bpc
			regs, ready = f.regs, f.ready
			continue

		case bytecode.Call:
			m.retireBC(done, bi.Class, bi.MemoTag)
			m.hook(t, f, bi.Src, 0, false, true)
			t.nextIssue = tt + uint64(m.cfg.CallOverhead)
			callee := bi.Callee
			nf := m.newFrame(callee.IR)
			nf.bf = callee
			for i, p := range callee.IR.Params {
				nf.regs[p] = regs[bi.Args[i]]
				nf.ready[p] = t.nextIssue
			}
			nf.caller = f
			nf.retTo = bi.Rets
			f.bpc = pc
			f = nf
			t.cur = f
			code, pc = callee.Insns, 0
			regs, ready = f.regs, f.ready
			continue

		case bytecode.LdCRC:
			addr, hasAddr = uint64(int64(a)+int64(bi.Imm)), true
			acc := m.hier.Access(addr, false)
			raw, e := m.mem.LoadRaw(bi.Type, addr)
			if e != nil {
				err = srcErr(bi.Src, e)
				break run
			}
			done = tt + uint64(acc.Latency)
			regs[bi.Dst], ready[bi.Dst] = raw, done
			switch {
			case m.memo != nil:
				// The loaded value streams into the CRC unit as soon
				// as it is available (Table 4).
				if _, e := m.memo.Feed(bi.LUT, t.id, raw, bi.Type.Size(), uint(bi.Trunc), done); e != nil {
					err = srcErr(bi.Src, e)
					break run
				}
			case m.soft != nil:
				m.softFeed(t, bi.Src, raw)
			default:
				err = noUnitErr(bi.Src)
				break run
			}
			goto retire

		case bytecode.RegCRC:
			switch {
			case m.memo != nil:
				if _, e := m.memo.Feed(bi.LUT, t.id, a, bi.Type.Size(), uint(bi.Trunc), done); e != nil {
					err = srcErr(bi.Src, e)
					break run
				}
			case m.soft != nil:
				m.softFeed(t, bi.Src, a)
			default:
				err = noUnitErr(bi.Src)
				break run
			}
			goto retire

		case bytecode.Lookup:
			switch {
			case m.memo != nil:
				res, e := m.memo.Lookup(bi.LUT, t.id, tt)
				if e != nil {
					err = srcErr(bi.Src, e)
					break run
				}
				done, taken = res.DoneAt, res.Hit
				regs[bi.Dst], ready[bi.Dst] = res.Data, done
				regs[bi.Hit], ready[bi.Hit] = boolToRaw(res.Hit), done
				if h := m.hot; h != nil {
					h.lookupLat.Observe(float64(done - tt))
				}
			case m.soft != nil:
				m.softLookup(t, f, bi.Src, tt)
				done, taken = ready[bi.Dst], regs[bi.Hit] != 0
			default:
				err = noUnitErr(bi.Src)
				break run
			}
			goto retire

		case bytecode.Update:
			switch {
			case m.memo != nil:
				d, e := m.memo.Update(bi.LUT, t.id, a, tt)
				if e != nil {
					err = srcErr(bi.Src, e)
					break run
				}
				done = d
			case m.soft != nil:
				m.softUpdate(t, f, bi.Src)
				done = tt + 1
			default:
				err = noUnitErr(bi.Src)
				break run
			}
			goto retire

		case bytecode.Invalidate:
			switch {
			case m.memo != nil:
				cost, e := m.memo.Invalidate(bi.LUT)
				if e != nil {
					err = srcErr(bi.Src, e)
					break run
				}
				done = tt + uint64(cost)
				t.nextIssue = done
			case m.soft != nil:
				m.softInvalidate(t, bi.Src)
				done = tt + 1
			default:
				err = noUnitErr(bi.Src)
				break run
			}
			goto retire

		default:
			err = fmt.Errorf("cpu: bytecode op %s unimplemented", bi.Op)
			break run
		}
		regs[bi.Dst], ready[bi.Dst] = v, done

	retire:
		m.retireBC(done, bi.Class, bi.MemoTag)
		m.hook(t, f, bi.Src, addr, hasAddr, taken)
	}
	f.bpc = pc
	return err
}
