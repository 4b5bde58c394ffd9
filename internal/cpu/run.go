package cpu

import (
	"fmt"
	"math"

	"axmemo/internal/bytecode"
	"axmemo/internal/ir"
)

// frame is one function activation: a virtual register file, the
// per-register operand-ready times of the scoreboard, a program counter,
// and the return linkage to the caller.
type frame struct {
	fn    *ir.Function
	regs  []uint64
	ready []uint64
	id    uint64

	block int
	pc    int

	// bf/bpc bind the frame to the bytecode engine: when bf is non-nil
	// the frame executes bf.Insns[bpc] instead of walking the IR blocks
	// (block/pc above are then unused).
	bf  *bytecode.Func
	bpc int32

	caller *frame
	retTo  []ir.Reg // caller registers receiving the results
}

// threadState is one hardware thread: a call stack (linked frames), its
// in-order issue cursor, and its completion state.  Under SMT the
// pipeline resources (issue slots, functional units, caches, memoization
// unit) are shared between threads; the program-order constraint is
// per thread.
type threadState struct {
	id        int
	cur       *frame
	nextIssue uint64
	rets      []uint64
	done      bool
}

// newFrame activates fn, reusing a retired frame from the machine's free
// list when one is available.  The register file has one slot past fn's
// registers, the bytecode engine's always-ready source (see
// bytecode.FrameRegs); the tree interpreter never touches it.  A
// recycled frame is indistinguishable from a fresh one — registers and
// scoreboard are zeroed, the activation id is newly allocated — so
// execution (and therefore every simulated result) is identical whether
// or not recycling kicks in.  This keeps the call-heavy interpreter hot
// path allocation-free in steady state.
func (m *Machine) newFrame(fn *ir.Function) *frame {
	m.frameSeq++
	n := bytecode.FrameRegs(fn)
	if k := len(m.framePool); k > 0 {
		f := m.framePool[k-1]
		m.framePool[k-1] = nil
		m.framePool = m.framePool[:k-1]
		if cap(f.regs) < n {
			f.regs = make([]uint64, n)
			f.ready = make([]uint64, n)
		} else {
			f.regs = f.regs[:n]
			f.ready = f.ready[:n]
			clear(f.regs)
			clear(f.ready)
		}
		f.fn = fn
		f.id = m.frameSeq
		f.block, f.pc = 0, 0
		f.bf, f.bpc = nil, 0
		f.caller, f.retTo = nil, nil
		return f
	}
	return &frame{
		fn:    fn,
		regs:  make([]uint64, n),
		ready: make([]uint64, n),
		id:    m.frameSeq,
	}
}

// freeFrame retires a returned activation to the free list.
func (m *Machine) freeFrame(f *frame) {
	f.fn = nil
	f.bf = nil
	f.caller = nil
	f.retTo = nil
	m.framePool = append(m.framePool, f)
}

// issueAt computes the issue cycle of an instruction of thread t whose
// operands are ready at opsReady and which needs functional unit fu, then
// updates the scoreboard.  In-order issue per thread, at most IssueWidth
// issues per cycle across all threads, stalling on operands and
// structural hazards.
func (m *Machine) issueAt(t *threadState, opsReady uint64, fu FU, pipelined bool, lat int) (issue uint64) {
	tt := t.nextIssue
	if opsReady > tt {
		m.stallOperand += opsReady - tt
		tt = opsReady
	}
	// Structural hazard: pick the earliest-free instance of the unit
	// (the lower index on a tie; an absent instance is pinned at
	// ^uint64(0) and never wins).
	free := &m.fuFree[fu]
	best := 0
	if free[1] < free[0] {
		best = 1
	}
	if free[best] > tt {
		m.stallStructural += free[best] - tt
		tt = free[best]
	}
	// Issue-slot accounting (shared across threads).
	if tt == m.lastIssue {
		if m.slots >= m.cfg.IssueWidth {
			tt++
			m.stallIssue++
			m.lastIssue = tt
			m.slots = 1
		} else {
			m.slots++
		}
	} else if tt > m.lastIssue {
		m.lastIssue = tt
		m.slots = 1
	} else {
		// The other thread's issue cursor is already past this
		// cycle; co-issue in the current slot accounting.
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
	if pipelined {
		free[best] = tt + 1
	} else {
		free[best] = tt + uint64(lat)
	}
	t.nextIssue = tt
	return tt
}

// retire records an instruction's completion time and energy class.
func (m *Machine) retire(done uint64, in *ir.Instr) {
	if done > m.cycle {
		m.cycle = done
	}
	m.insns++
	class := opTable[in.Op].class
	m.ecounts.Insns[class]++
	if h := m.hot; h != nil {
		h.insns[class].Inc()
	}
	if in.Op.IsMemo() && in.Op != ir.LdCRC || in.Aux {
		m.memoInsns++
	}
}

// hook reports an executed instruction to the configured Hook.  It is
// only the nil check, small enough to inline at every call site, so a
// run without a hook pays one compare per instruction.
func (m *Machine) hook(t *threadState, f *frame, in *ir.Instr, addr uint64, hasAddr, taken bool) {
	if m.cfg.Hook != nil {
		m.callHook(t, f, in, addr, hasAddr, taken)
	}
}

// callHook builds the ExecInfo and calls the Hook.  It must stay out of
// line: inlined, its body would push hook over the inlining budget
// (check with go build -gcflags=-m).
//
//go:noinline
func (m *Machine) callHook(t *threadState, f *frame, in *ir.Instr, addr uint64, hasAddr, taken bool) {
	m.cfg.Hook(ExecInfo{Func: f.fn, Instr: in, Frame: f.id, TID: t.id, Addr: addr, HasAddr: hasAddr, Taken: taken})
}

// opsReady returns the cycle at which all of in's register operands are
// available in frame f.  The operand list is gathered into the machine's
// persistent scratch slice so the per-instruction path never allocates,
// even for calls with many arguments.
func (m *Machine) opsReady(f *frame, in *ir.Instr) uint64 {
	uses := in.Uses(m.usesScratch[:0])
	m.usesScratch = uses[:0] // retain any growth for the next instruction
	var t uint64
	for _, r := range uses {
		if f.ready[r] > t {
			t = f.ready[r]
		}
	}
	return t
}

// errLimitf formats the dynamic-limit error.
func (m *Machine) errLimitf() error {
	return fmt.Errorf("%w (%d)", ErrInsnBudget, m.cfg.MaxInsns)
}

// stepTree executes one instruction of thread t by walking the IR block
// structure.  It returns an error on functional faults; thread
// completion is flagged in t.done.  stepTree is the differential oracle
// for the bytecode engine (runBC): the two must match event for event.
func (m *Machine) stepTree(t *threadState) error {
	if m.insns >= m.cfg.MaxInsns {
		return m.errLimitf()
	}
	if m.cfg.MaxCycles > 0 && m.cycle > m.cfg.MaxCycles {
		return fmt.Errorf("%w (%d)", ErrCycleBudget, m.cfg.MaxCycles)
	}
	f := t.cur
	blk := f.fn.Blocks[f.block]
	if f.pc >= len(blk.Instrs) {
		return fmt.Errorf("cpu: block b%d of %s fell through", f.block, f.fn.Name)
	}
	in := &blk.Instrs[f.pc]
	info := opTable[in.Op]
	ready := m.opsReady(f, in)

	// Default control flow: advance within the block.
	f.pc++

	switch in.Op {
	case ir.Nop:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		m.retire(tt+1, in)
		m.hook(t, f, in, 0, false, false)

	case ir.Const:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		f.regs[in.Dst] = in.Imm
		f.ready[in.Dst] = tt + 1
		m.retire(tt+1, in)
		m.hook(t, f, in, 0, false, false)

	case ir.Mov:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		f.regs[in.Dst] = f.regs[in.A]
		f.ready[in.Dst] = tt + 1
		m.retire(tt+1, in)
		m.hook(t, f, in, 0, false, false)

	case ir.Cvt:
		tt := m.issueAt(t, ready, info.fu, info.pipelined, info.lat)
		raw, err := evalCvt(in.SrcType, in.Type, f.regs[in.A])
		if err != nil {
			return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
		}
		f.regs[in.Dst] = raw
		f.ready[in.Dst] = tt + uint64(info.lat)
		m.retire(f.ready[in.Dst], in)
		m.hook(t, f, in, 0, false, false)

	case ir.Load:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		addr := uint64(int64(f.regs[in.A]) + int64(in.Imm))
		acc := m.hier.Access(addr, false)
		raw, err := m.mem.LoadRaw(in.Type, addr)
		if err != nil {
			return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
		}
		f.regs[in.Dst] = raw
		f.ready[in.Dst] = tt + uint64(acc.Latency)
		m.retire(f.ready[in.Dst], in)
		m.hook(t, f, in, addr, true, false)

	case ir.Store:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		addr := uint64(int64(f.regs[in.A]) + int64(in.Imm))
		m.hier.Access(addr, true)
		if err := m.mem.StoreRaw(in.Type, addr, f.regs[in.B]); err != nil {
			return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
		}
		// Stores retire through the write buffer; the issue slot is
		// the visible cost.
		m.retire(tt+1, in)
		m.hook(t, f, in, addr, true, false)

	case ir.Jmp:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		m.retire(tt+1, in)
		m.hook(t, f, in, 0, false, true)
		t.nextIssue = tt + 1
		f.block, f.pc = in.Blk0, 0

	case ir.Br:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		taken := f.regs[in.A] != 0
		m.retire(tt+1, in)
		m.hook(t, f, in, 0, false, taken)
		// Static prediction: not-taken by default; with BTFN,
		// backward targets (loop back-edges) are predicted taken.
		predictTaken := false
		if m.cfg.PredictBTFN && in.Blk0 <= f.block {
			predictTaken = true
		}
		if taken != predictTaken {
			t.nextIssue = tt + 1 + uint64(m.cfg.BranchPenalty)
		}
		if taken {
			f.block, f.pc = in.Blk0, 0
		} else {
			f.block, f.pc = in.Blk1, 0
		}

	case ir.Ret:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		m.retire(tt+1, in)
		m.hook(t, f, in, 0, false, true)
		t.nextIssue = tt + uint64(m.cfg.CallOverhead)
		if f.caller == nil {
			t.rets = make([]uint64, len(in.Args))
			for i, r := range in.Args {
				t.rets[i] = f.regs[r]
			}
			t.done = true
			t.cur = nil
			m.freeFrame(f)
			return nil
		}
		caller := f.caller
		for i, r := range f.retTo {
			caller.regs[r] = f.regs[in.Args[i]]
			caller.ready[r] = t.nextIssue
		}
		t.cur = caller
		m.freeFrame(f)

	case ir.Call:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		m.retire(tt+uint64(info.lat), in)
		m.hook(t, f, in, 0, false, true)
		t.nextIssue = tt + uint64(m.cfg.CallOverhead)
		callee := m.prog.Funcs[in.Callee]
		nf := m.newFrame(callee)
		for i, p := range callee.Params {
			nf.regs[p] = f.regs[in.Args[i]]
			nf.ready[p] = t.nextIssue
		}
		nf.caller = f
		nf.retTo = in.Rets
		t.cur = nf

	case ir.LdCRC:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		addr := uint64(int64(f.regs[in.A]) + int64(in.Imm))
		acc := m.hier.Access(addr, false)
		raw, err := m.mem.LoadRaw(in.Type, addr)
		if err != nil {
			return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
		}
		f.regs[in.Dst] = raw
		dataReady := tt + uint64(acc.Latency)
		f.ready[in.Dst] = dataReady
		switch {
		case m.memo != nil:
			// The loaded value streams into the CRC unit as soon
			// as it is available; draining happens in the
			// background (Table 4).
			if _, err := m.memo.Feed(in.LUT, t.id, raw, in.Type.Size(), uint(in.Trunc), dataReady); err != nil {
				return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
			}
		case m.soft != nil:
			m.softFeed(t, in, raw)
		default:
			return fmt.Errorf("cpu: %s executed without a memoization unit", in)
		}
		m.retire(dataReady, in)
		m.hook(t, f, in, addr, true, false)

	case ir.RegCRC:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		switch {
		case m.memo != nil:
			if _, err := m.memo.Feed(in.LUT, t.id, f.regs[in.A], in.Type.Size(), uint(in.Trunc), tt+1); err != nil {
				return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
			}
		case m.soft != nil:
			m.softFeed(t, in, f.regs[in.A])
		default:
			return fmt.Errorf("cpu: %s executed without a memoization unit", in)
		}
		m.retire(tt+1, in)
		m.hook(t, f, in, 0, false, false)

	case ir.Lookup:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		switch {
		case m.memo != nil:
			res, err := m.memo.Lookup(in.LUT, t.id, tt)
			if err != nil {
				return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
			}
			f.regs[in.Dst] = res.Data
			f.regs[in.B] = boolToRaw(res.Hit)
			f.ready[in.Dst] = res.DoneAt
			f.ready[in.B] = res.DoneAt
			if h := m.hot; h != nil {
				h.lookupLat.Observe(float64(res.DoneAt - tt))
			}
			m.retire(res.DoneAt, in)
			m.hook(t, f, in, 0, false, res.Hit)
		case m.soft != nil:
			m.softLookup(t, f, in, tt)
			m.retire(f.ready[in.Dst], in)
			m.hook(t, f, in, 0, false, f.regs[in.B] != 0)
		default:
			return fmt.Errorf("cpu: %s executed without a memoization unit", in)
		}

	case ir.Update:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		switch {
		case m.memo != nil:
			done, err := m.memo.Update(in.LUT, t.id, f.regs[in.A], tt)
			if err != nil {
				return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
			}
			m.retire(done, in)
		case m.soft != nil:
			m.softUpdate(t, f, in)
			m.retire(tt+1, in)
		default:
			return fmt.Errorf("cpu: %s executed without a memoization unit", in)
		}
		m.hook(t, f, in, 0, false, false)

	case ir.Invalidate:
		tt := m.issueAt(t, ready, info.fu, true, 1)
		switch {
		case m.memo != nil:
			cost, err := m.memo.Invalidate(in.LUT)
			if err != nil {
				return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
			}
			t.nextIssue = tt + uint64(cost)
			m.retire(tt+uint64(cost), in)
		case m.soft != nil:
			m.softInvalidate(t, in)
			m.retire(tt+1, in)
		default:
			return fmt.Errorf("cpu: %s executed without a memoization unit", in)
		}
		m.hook(t, f, in, 0, false, false)

	default:
		tt := m.issueAt(t, ready, info.fu, info.pipelined, info.lat)
		var raw uint64
		var err error
		if in.Op.IsBinary() {
			raw, err = evalBin(in.Op, in.Type, f.regs[in.A], f.regs[in.B])
		} else {
			raw, err = evalUn(in.Op, in.Type, f.regs[in.A])
		}
		if err != nil {
			return fmt.Errorf("%s (sid %d): %w", in, in.SID, err)
		}
		f.regs[in.Dst] = raw
		f.ready[in.Dst] = tt + uint64(info.lat)
		m.retire(f.ready[in.Dst], in)
		m.hook(t, f, in, 0, false, false)
	}
	return nil
}

// runThreads interleaves the given threads round-robin, one instruction
// each, until all complete.  A lone thread bound to bytecode has nothing
// to interleave with, so runBC runs it to completion in one call.
func (m *Machine) runThreads(threads []*threadState) error {
	if len(threads) == 1 && threads[0].cur.bf != nil {
		return m.runBC(threads[0], math.MaxInt)
	}
	remaining := len(threads)
	for remaining > 0 {
		progressed := false
		for _, t := range threads {
			if t.done {
				continue
			}
			if err := m.step(t); err != nil {
				return err
			}
			progressed = true
			if t.done {
				remaining--
			}
		}
		if !progressed {
			return fmt.Errorf("cpu: scheduler stalled with %d live threads", remaining)
		}
	}
	return nil
}
