package cpu

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"axmemo/internal/bytecode"
	"axmemo/internal/ir"
	"axmemo/internal/memo"
)

// The bytecode engine's contract: instruction-for-instruction equality
// with the tree oracle — same results, same statistics, same hook event
// stream — on every program, including fault and budget-halt paths.

// diffMaxInsns caps the instruction budget of every run the differential
// helpers make.  The longest program they run, BuildHotLoop at 300
// iterations, retires 3,607 instructions, so a correct engine never
// reaches the cap; an engine fault that stops the pc advancing halts at
// it, with 3 MB of hook events, and shows as a divergence from the oracle
// instead of running to the default two-billion-instruction budget.
const diffMaxInsns = 1 << 16

// capInsns lowers cfg's instruction budget to diffMaxInsns.
func capInsns(cfg *Config) {
	if cfg.MaxInsns == 0 || cfg.MaxInsns > diffMaxInsns {
		cfg.MaxInsns = diffMaxInsns
	}
}

// diffEngines runs one scenario on both engines and asserts that the
// outcome (results and statistics, partial ones on a budget halt), the
// error text, and the complete hook event stream are identical.  run
// builds a fresh machine (or cluster) and memory from cfg — engine and
// hook already set, every thread and core sharing the hook, the
// instruction budget capped at diffMaxInsns — and runs it; its outcome
// is compared with reflect.DeepEqual.  It returns the bytecode run's
// outcome, event stream and error.
func diffEngines[R any](t *testing.T, cfg Config, run func(cfg Config) (R, error)) (R, []ExecInfo, error) {
	t.Helper()
	type capture struct {
		out    R
		err    error
		events []ExecInfo
	}
	capInsns(&cfg)
	exec := func(e Engine) capture {
		var c capture
		cfg := cfg
		cfg.Engine = e
		cfg.Hook = func(ei ExecInfo) { c.events = append(c.events, ei) }
		c.out, c.err = run(cfg)
		return c
	}
	bc, tr := exec(EngineBytecode), exec(EngineTree)
	if (bc.err == nil) != (tr.err == nil) {
		t.Fatalf("error divergence: bytecode=%v tree=%v", bc.err, tr.err)
	}
	if bc.err != nil && bc.err.Error() != tr.err.Error() {
		t.Fatalf("error text divergence:\n  bytecode: %v\n  tree:     %v", bc.err, tr.err)
	}
	if !reflect.DeepEqual(bc.out, tr.out) {
		t.Fatalf("outcome divergence:\n  bytecode: %+v\n  tree:     %+v", bc.out, tr.out)
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
	return bc.out, bc.events, bc.err
}

// diffRun executes prog single-threaded on both engines (fresh machine
// and memory each) through diffEngines.  mutate adjusts the config;
// setup fills the fresh memory image.
func diffRun(t *testing.T, prog *ir.Program, mutate func(*Config), memSize int,
	setup func(*Memory), args ...uint64) (*Result, error) {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	res, _, err := diffEngines(t, cfg, func(cfg Config) (*Result, error) {
		img := NewMemory(memSize)
		if setup != nil {
			setup(img)
		}
		m, err := New(prog, img, cfg)
		if err != nil {
			t.Fatalf("engine %s: New: %v", cfg.Engine, err)
		}
		return m.Run(args...)
	})
	return res, err
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
	// Call/return frame churn plus the compare+branch loop header.
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
// Mov: the copy reads a register the memoization unit just wrote.
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
	mutate := func(cfg *Config) {
		mc := memo.DefaultConfig()
		mc.Monitor.Enabled = false
		cfg.Memo = &mc
	}
	if _, err := diffRun(t, prog, mutate, 64, nil, uint64(math.Float32bits(2.0))); err != nil {
		t.Fatal(err)
	}
}

// buildLoadCvt builds a kernel that loads an f32 and widens it: the
// conversion waits on a cache-latency operand.
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
// through the hot loop's first iterations: some budgets land between a
// compare and the branch that reads it, or between a call and its
// callee's first instruction, where the bytecode engine must stop with
// the identical partial statistics the tree engine reports.
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
// its first iterations — landing between a compare and its branch and
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

// TestDifferentialSMTAndCluster holds threaded runs to the oracle: SMT
// threads and cluster cores interleave round-robin, one instruction
// per slot, over shared issue slots, caches and the memoization unit,
// so the bytecode engine must match the tree event for event — full
// runs and budget halts that land inside a call and right after a
// compare, including a halted cluster's "core i: ..." error and its
// partial statistics.  A slot that retired two instructions would
// reorder the interleaved hook stream.
func TestDifferentialSMTAndCluster(t *testing.T) {
	withMemo := func(cfg *Config, threads int) {
		mc := memo.DefaultConfig()
		mc.Monitor.Enabled = false
		mc.Threads = threads
		cfg.Memo = &mc
	}

	// Two threads of the memoized kernel itself.
	cfg := DefaultConfig()
	withMemo(&cfg, 2)
	msqrt := buildMemoizedSqrt(0)
	if _, _, err := diffEngines(t, cfg, func(cfg Config) (*SMTResult, error) {
		m, err := New(msqrt, NewMemory(64), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.RunSMT(
			[]uint64{uint64(math.Float32bits(4.0))},
			[]uint64{uint64(math.Float32bits(9.0))},
		)
	}); err != nil {
		t.Fatal(err)
	}

	// Two threads of a 64-element memoized sweep sharing one unit.
	sweep := buildMemoSweep()
	runSweep := func(cfg Config) (*SMTResult, error) {
		const n = 64
		img := NewMemory(1 << 16)
		var args [][]uint64
		for th := 0; th < 2; th++ {
			src, dst := img.Alloc(n*4), img.Alloc(n*4)
			for i := 0; i < n; i++ {
				img.SetF32(src+uint64(4*i), float32(i%8)+0.5*float32(th))
			}
			args = append(args, []uint64{src, dst, n})
		}
		m, err := New(sweep, img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.RunSMT(args...)
	}
	full, stream, err := diffEngines(t, cfg, runSweep)
	if err != nil {
		t.Fatal(err)
	}
	// Instruction budgets: halt right after the first few compares,
	// calls and lookups of either thread, and at points through the run.
	var budgets []uint64
	seen := map[ir.Op]int{}
	for i, ei := range stream {
		if op := ei.Instr.Op; (op == ir.CmpLT || op == ir.Call || op == ir.Lookup) && seen[op] < 3 {
			seen[op]++
			budgets = append(budgets, uint64(i+1))
		}
	}
	for k := uint64(1); k < 4; k++ {
		budgets = append(budgets, k*full.Stats.Insns/4)
	}
	inCall, afterCmp := false, false
	for _, budget := range budgets {
		c := cfg
		c.MaxInsns = budget
		res, events, err := diffEngines(t, c, runSweep)
		if !errors.Is(err, ErrInsnBudget) {
			t.Fatalf("SMT insn budget %d: want ErrInsnBudget, got %v", budget, err)
		}
		if res.Stats.Insns != budget {
			t.Fatalf("SMT insn budget %d: halted after %d insns", budget, res.Stats.Insns)
		}
		last := events[len(events)-1]
		inCall = inCall || last.Func.Name == "msqrt" || last.Instr.Op == ir.Call
		afterCmp = afterCmp || last.Instr.Op == ir.CmpLT
	}
	for budget := uint64(1); budget <= 120; budget++ {
		c := cfg
		c.MaxCycles = budget
		_, events, err := diffEngines(t, c, runSweep)
		if !errors.Is(err, ErrCycleBudget) {
			t.Fatalf("SMT cycle budget %d: want ErrCycleBudget, got %v", budget, err)
		}
		if len(events) > 0 {
			last := events[len(events)-1]
			inCall = inCall || last.Func.Name == "msqrt"
			afterCmp = afterCmp || last.Instr.Op == ir.CmpLT
		}
	}
	if !inCall || !afterCmp {
		t.Errorf("SMT budgets missed a halt: inside a call=%v, right after a compare=%v", inCall, afterCmp)
	}

	// Clusters of 1, 2 and 3 cores over one shared image; core i sums
	// 4+3i elements, so the cores finish, and halt, at different times.
	sum := buildSumLoop()
	for _, cores := range []int{1, 2, 3} {
		runCluster := func(cfg Config) (*ClusterResult, error) {
			img := NewMemory(1 << 16)
			for i := 0; i < 16; i++ {
				img.SetF32(uint64(4*i), float32(i))
			}
			cl, err := NewCluster(sum, img, cfg, cores)
			if err != nil {
				t.Fatal(err)
			}
			sets := make([][]uint64, cores)
			for i := range sets {
				sets[i] = []uint64{0, uint64(4 + 3*i)}
			}
			return cl.Run(sets...)
		}
		cfg := DefaultConfig()
		full, _, err := diffEngines(t, cfg, runCluster)
		if err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		haltedCores := map[string]bool{}
		halt := func(c Config, want error) {
			t.Helper()
			res, _, err := diffEngines(t, c, runCluster)
			if !errors.Is(err, want) {
				t.Fatalf("%d cores: want %v, got %v", cores, want, err)
			}
			if res == nil || len(res.PerCore) != cores {
				t.Fatalf("%d cores: halt without per-core partial statistics: %+v", cores, res)
			}
			haltedCores[strings.SplitN(err.Error(), ":", 2)[0]] = true
		}
		for budget := uint64(1); budget < full.PerCore[cores-1].Insns; budget += 3 {
			c := cfg
			c.MaxInsns = budget
			halt(c, ErrInsnBudget)
		}
		for budget := uint64(1); budget < full.Cycles; budget += 5 {
			c := cfg
			c.MaxCycles = budget
			halt(c, ErrCycleBudget)
		}
		if len(haltedCores) != cores {
			t.Errorf("%d cores: budget halts named only %v", cores, haltedCores)
		}
	}
}

// TestEngineString pins the engine names benchmarks and messages use.
func TestEngineString(t *testing.T) {
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
