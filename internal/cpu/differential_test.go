package cpu

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"axmemo/internal/bytecode"
	"axmemo/internal/ir"
	"axmemo/internal/memo"
)

// The bytecode engine's contract: instruction-for-instruction equality
// with the tree oracle — same results, same statistics, same hook event
// stream — on every program, including fault and budget-halt paths.

// diffRun executes prog on both engines (fresh machine and memory each)
// and asserts results, errors, statistics, and the complete hook event
// stream are identical.  mutate adjusts the per-engine config (it runs
// after the engine is set); setup fills the fresh memory image.
func diffRun(t *testing.T, prog *ir.Program, mutate func(*Config), memSize int,
	setup func(*Memory), args ...uint64) (*Result, error) {
	t.Helper()
	type capture struct {
		res    *Result
		err    error
		events []ExecInfo
	}
	run := func(e Engine) capture {
		var c capture
		cfg := DefaultConfig()
		cfg.Engine = e
		if mutate != nil {
			mutate(&cfg)
		}
		cfg.Hook = func(ei ExecInfo) { c.events = append(c.events, ei) }
		img := NewMemory(memSize)
		if setup != nil {
			setup(img)
		}
		m, err := New(prog, img, cfg)
		if err != nil {
			t.Fatalf("engine %s: New: %v", e, err)
		}
		c.res, c.err = m.Run(args...)
		return c
	}
	bc := run(EngineBytecode)
	tr := run(EngineTree)
	if (bc.err == nil) != (tr.err == nil) {
		t.Fatalf("error divergence: bytecode=%v tree=%v", bc.err, tr.err)
	}
	if bc.err != nil && bc.err.Error() != tr.err.Error() {
		t.Fatalf("error text divergence:\n  bytecode: %v\n  tree:     %v", bc.err, tr.err)
	}
	if (bc.res == nil) != (tr.res == nil) {
		t.Fatalf("result presence divergence: bytecode=%v tree=%v", bc.res, tr.res)
	}
	if bc.res != nil {
		if !reflect.DeepEqual(bc.res.Rets, tr.res.Rets) {
			t.Fatalf("result divergence: bytecode=%v tree=%v", bc.res.Rets, tr.res.Rets)
		}
		if !reflect.DeepEqual(bc.res.Stats, tr.res.Stats) {
			t.Fatalf("stats divergence:\n  bytecode: %+v\n  tree:     %+v", bc.res.Stats, tr.res.Stats)
		}
	}
	if len(bc.events) != len(tr.events) {
		t.Fatalf("hook stream length divergence: bytecode=%d tree=%d", len(bc.events), len(tr.events))
	}
	for i := range bc.events {
		if bc.events[i] != tr.events[i] {
			t.Fatalf("hook event %d divergence:\n  bytecode: %+v\n  tree:     %+v",
				i, bc.events[i], tr.events[i])
		}
	}
	return bc.res, bc.err
}

func TestDifferentialSumLoop(t *testing.T) {
	prog := buildSumLoop()
	res, err := diffRun(t, prog, nil, 1<<16, func(img *Memory) {
		for i := 0; i < 16; i++ {
			img.SetF32(uint64(4*i), float32(i)+0.25)
		}
	}, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Insns == 0 {
		t.Fatal("no instructions retired")
	}
}

func TestDifferentialHotLoopCalls(t *testing.T) {
	// Call/return frame churn plus the fused compare+branch back-edge.
	if _, err := diffRun(t, BuildHotLoop(), nil, 1<<12, nil, 200); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialMemoizedKernel(t *testing.T) {
	prog := buildMemoizedSqrt(12)
	mutate := func(cfg *Config) {
		mc := memo.DefaultConfig()
		mc.Monitor.Enabled = false
		cfg.Memo = &mc
	}
	if _, err := diffRun(t, prog, mutate, 64, nil, uint64(math.Float32bits(9.0))); err != nil {
		t.Fatal(err)
	}
}

// buildLookupMov builds a kernel whose lookup result is copied through a
// Mov — the LookupMov fusion shape.
func buildLookupMov() *ir.Program {
	p := ir.NewProgram("lm")
	f := p.NewFunc("lm", []ir.Type{ir.F32}, []ir.Type{ir.F32, ir.I32})
	entry := f.NewBlock("entry")
	bu := ir.At(f, entry)
	bu.RegCRC(ir.F32, f.Params[0], 0, 0)
	data, hit := bu.Lookup(ir.F32, 0)
	cp := bu.Mov(ir.F32, data)
	bu.Ret(cp, hit)
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

func TestDifferentialLookupMov(t *testing.T) {
	prog := buildLookupMov()
	// Confirm the fusion actually fires, so the differential run below
	// exercises the fused path rather than accidentally testing nothing.
	bp, err := bytecode.Compile(prog, bcCost)
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(bp, bytecode.LookupMov) {
		t.Fatal("LookupMov fusion did not fire")
	}
	mutate := func(cfg *Config) {
		mc := memo.DefaultConfig()
		mc.Monitor.Enabled = false
		cfg.Memo = &mc
	}
	if _, err := diffRun(t, prog, mutate, 64, nil, uint64(math.Float32bits(2.0))); err != nil {
		t.Fatal(err)
	}
}

// buildLoadCvt builds a kernel that loads an f32 and widens it — the
// LoadCvt fusion shape.
func buildLoadCvt() *ir.Program {
	p := ir.NewProgram("lc")
	f := p.NewFunc("lc", []ir.Type{ir.I64}, []ir.Type{ir.F64})
	entry := f.NewBlock("entry")
	bu := ir.At(f, entry)
	v := bu.Load(ir.F32, f.Params[0], 0)
	w := bu.Cvt(ir.F32, ir.F64, v)
	bu.Ret(w)
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

func TestDifferentialLoadCvt(t *testing.T) {
	prog := buildLoadCvt()
	bp, err := bytecode.Compile(prog, bcCost)
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(bp, bytecode.LoadCvt) {
		t.Fatal("LoadCvt fusion did not fire")
	}
	res, err := diffRun(t, prog, nil, 1024, func(img *Memory) {
		img.SetF32(64, 1.5)
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(res.Rets[0]); got != 1.5 {
		t.Fatalf("load+cvt = %v, want 1.5", got)
	}
}

// buildBadSqrt builds sqrt at an integer type: passes validation, fails
// at run time — the FallbackOp path.
func buildBadSqrt() *ir.Program {
	p := ir.NewProgram("bad")
	f := p.NewFunc("bad", []ir.Type{ir.I32}, []ir.Type{ir.I32})
	entry := f.NewBlock("entry")
	bu := ir.At(f, entry)
	r := bu.Un(ir.Sqrt, ir.I32, f.Params[0])
	bu.Ret(r)
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

func TestDifferentialFallbackError(t *testing.T) {
	prog := buildBadSqrt()
	bp, err := bytecode.Compile(prog, bcCost)
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(bp, bytecode.FallbackOp) {
		t.Fatal("invalid op/type combination did not lower to FallbackOp")
	}
	_, runErr := diffRun(t, prog, nil, 64, nil, 9)
	if runErr == nil {
		t.Fatal("sqrt.i32 did not fail")
	}
}

func TestDifferentialDivisionByZero(t *testing.T) {
	p := ir.NewProgram("dz")
	f := p.NewFunc("dz", []ir.Type{ir.I32, ir.I32}, []ir.Type{ir.I32})
	entry := f.NewBlock("entry")
	bu := ir.At(f, entry)
	r := bu.Bin(ir.SDiv, ir.I32, f.Params[0], f.Params[1])
	bu.Ret(r)
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	_, err := diffRun(t, p, nil, 64, nil, 7, 0)
	if err == nil {
		t.Fatal("division by zero did not fail")
	}
}

// TestDifferentialBudgetMidPair halts runs at every instruction budget
// up to a full hot-loop execution: some budgets land exactly between the
// two components of a fused pair, where the bytecode engine must stop
// with the identical partial statistics the tree engine reports.
func TestDifferentialBudgetMidPair(t *testing.T) {
	prog := BuildHotLoop()
	for budget := uint64(1); budget <= 40; budget++ {
		_, err := diffRun(t, prog, func(cfg *Config) {
			cfg.MaxInsns = budget
		}, 1<<12, nil, 1000)
		if !errors.Is(err, ErrInsnBudget) {
			t.Fatalf("budget %d: want ErrInsnBudget, got %v", budget, err)
		}
	}
}

// TestDifferentialCycleBudget is TestDifferentialBudgetMidPair for the
// cycle watchdog: it halts the hot loop at every cycle budget through
// its first iterations — landing inside the fused compare+branch and
// around call/return — and the memoized kernel at every budget short of
// its full run.  Both engines must stop with ErrCycleBudget and
// identical partial statistics and hook streams.
func TestDifferentialCycleBudget(t *testing.T) {
	hot := BuildHotLoop()
	// The dynamic instruction stream names the instruction each halt
	// follows.
	var stream []ExecInfo
	cfg := DefaultConfig()
	cfg.MaxInsns = 1000
	cfg.Hook = func(ei ExecInfo) { stream = append(stream, ei) }
	m, err := New(hot, NewMemory(1<<12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1000); !errors.Is(err, ErrInsnBudget) {
		t.Fatalf("reference run: want ErrInsnBudget, got %v", err)
	}
	haltedAfter := map[ir.Op]bool{}
	for budget := uint64(1); budget <= 150; budget++ {
		res, err := diffRun(t, hot, func(cfg *Config) {
			cfg.MaxCycles = budget
		}, 1<<12, nil, 1000)
		if !errors.Is(err, ErrCycleBudget) {
			t.Fatalf("cycle budget %d: want ErrCycleBudget, got %v", budget, err)
		}
		if n := res.Stats.Insns; n > 0 {
			haltedAfter[stream[n-1].Instr.Op] = true
		}
	}
	for _, op := range []ir.Op{ir.CmpLT, ir.Call, ir.Ret} {
		if !haltedAfter[op] {
			t.Errorf("no cycle budget halted right after a %s", op)
		}
	}

	// Both budgets exceeded at the same boundary: the instruction
	// budget is the one reported.
	res, err := diffRun(t, hot, func(cfg *Config) {
		cfg.MaxInsns, cfg.MaxCycles = 20, 29
	}, 1<<12, nil, 1000)
	if !errors.Is(err, ErrInsnBudget) {
		t.Fatalf("both budgets: want ErrInsnBudget, got %v", err)
	}
	if res.Stats.Insns != 20 || res.Stats.Cycles <= 29 {
		t.Fatalf("both budgets: halted at %d insns, %d cycles; want 20 insns past cycle 29",
			res.Stats.Insns, res.Stats.Cycles)
	}

	msqrt := buildMemoizedSqrt(12)
	arg := uint64(math.Float32bits(9.0))
	withMemo := func(cfg *Config) {
		mc := memo.DefaultConfig()
		mc.Monitor.Enabled = false
		cfg.Memo = &mc
	}
	full, err := diffRun(t, msqrt, withMemo, 64, nil, arg)
	if err != nil {
		t.Fatal(err)
	}
	// A budget crossed by the final instruction lets the run complete;
	// every smaller budget must halt.
	halts, completed := 0, false
	for budget := uint64(1); budget < full.Stats.Cycles; budget++ {
		_, err := diffRun(t, msqrt, func(cfg *Config) {
			withMemo(cfg)
			cfg.MaxCycles = budget
		}, 64, nil, arg)
		switch {
		case err == nil:
			completed = true
		case !errors.Is(err, ErrCycleBudget):
			t.Fatalf("memoized kernel, cycle budget %d: want ErrCycleBudget, got %v", budget, err)
		case completed:
			t.Fatalf("memoized kernel: cycle budget %d halted after a smaller budget completed", budget)
		default:
			halts++
		}
	}
	if halts == 0 {
		t.Fatalf("no cycle budget below %d halted the memoized kernel", full.Stats.Cycles)
	}
}

// TestDifferentialSMTAndCluster pins the engine-independence of
// multi-thread runs: SMT and multi-core clusters execute on the tree
// engine under both configurations (fused pairs would reorder shared
// round-robin accounting), so stats must be identical.
func TestDifferentialSMTAndCluster(t *testing.T) {
	prog := buildMemoizedSqrt(0)
	smtRun := func(e Engine) *SMTResult {
		cfg := DefaultConfig()
		cfg.Engine = e
		mc := memo.DefaultConfig()
		mc.Monitor.Enabled = false
		mc.Threads = 2
		cfg.Memo = &mc
		m, err := New(prog, NewMemory(64), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunSMT(
			[]uint64{uint64(math.Float32bits(4.0))},
			[]uint64{uint64(math.Float32bits(9.0))},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := smtRun(EngineBytecode), smtRun(EngineTree); !reflect.DeepEqual(a, b) {
		t.Fatalf("SMT divergence:\n  bytecode cfg: %+v\n  tree cfg:     %+v", a, b)
	}

	sum := buildSumLoop()
	clRun := func(e Engine, cores int) *ClusterResult {
		cfg := DefaultConfig()
		cfg.Engine = e
		img := NewMemory(1 << 16)
		for i := 0; i < 8; i++ {
			img.SetF32(uint64(4*i), float32(i))
		}
		cl, err := NewCluster(sum, img, cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		sets := make([][]uint64, cores)
		for i := range sets {
			sets[i] = []uint64{0, 8}
		}
		res, err := cl.Run(sets...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, cores := range []int{1, 2} {
		if a, b := clRun(EngineBytecode, cores), clRun(EngineTree, cores); !reflect.DeepEqual(a, b) {
			t.Fatalf("cluster(%d cores) divergence:\n  bytecode cfg: %+v\n  tree cfg:     %+v", cores, a, b)
		}
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		err  bool
	}{
		{"", EngineBytecode, false},
		{"bytecode", EngineBytecode, false},
		{"tree", EngineTree, false},
		{"llvm", 0, true},
	} {
		got, err := ParseEngine(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
	if EngineBytecode.String() != "bytecode" || EngineTree.String() != "tree" {
		t.Error("Engine.String mismatch")
	}
}

// hasOp reports whether any compiled function contains op.
func hasOp(bp *bytecode.Program, op bytecode.Op) bool {
	for _, bf := range bp.Funcs {
		for i := range bf.Insns {
			if bf.Insns[i].Op == op {
				return true
			}
		}
	}
	return false
}
