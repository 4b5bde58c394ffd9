package cpu

import (
	"errors"
	"math"
	"testing"

	"axmemo/internal/ir"
	"axmemo/internal/memo"
)

// buildScale builds: func scale(x f32) f32 { return x * 2.5 }
func buildScale() *ir.Program {
	p := ir.NewProgram("scale")
	f := p.NewFunc("scale", []ir.Type{ir.F32}, []ir.Type{ir.F32})
	bb := f.NewBlock("entry")
	bu := ir.At(f, bb)
	c := bu.ConstF32(2.5)
	r := bu.Bin(ir.FMul, ir.F32, f.Params[0], c)
	bu.Ret(r)
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

// buildSumLoop builds: func sum(base i64, n i32) f32 — sums n float32s.
func buildSumLoop() *ir.Program {
	p := ir.NewProgram("sum")
	f := p.NewFunc("sum", []ir.Type{ir.I64, ir.I32}, []ir.Type{ir.F32})
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	body := f.NewBlock("body")
	done := f.NewBlock("done")

	bu := ir.At(f, entry)
	acc := bu.ConstF32(0)
	i := bu.ConstI32(0)
	four := bu.ConstI64(4)
	addr := bu.Mov(ir.I64, f.Params[0])
	bu.Jmp(loop)

	bu.SetBlock(loop)
	c := bu.Bin(ir.CmpLT, ir.I32, i, f.Params[1])
	bu.Br(c, body, done)

	bu.SetBlock(body)
	v := bu.Load(ir.F32, addr, 0)
	next := bu.Bin(ir.FAdd, ir.F32, acc, v)
	bu.MovTo(ir.F32, acc, next)
	one := bu.ConstI32(1)
	i2 := bu.Bin(ir.Add, ir.I32, i, one)
	bu.MovTo(ir.I32, i, i2)
	a2 := bu.Bin(ir.Add, ir.I64, addr, four)
	bu.MovTo(ir.I64, addr, a2)
	bu.Jmp(loop)

	bu.SetBlock(done)
	bu.Ret(acc)
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

func runProg(t *testing.T, p *ir.Program, cfg Config, memSize int, args ...uint64) *Result {
	t.Helper()
	m, err := New(p, NewMemory(memSize), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(args...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScaleFunctional(t *testing.T) {
	res := runProg(t, buildScale(), DefaultConfig(), 1024, uint64(math.Float32bits(4.0)))
	got := math.Float32frombits(uint32(res.Rets[0]))
	if got != 10.0 {
		t.Errorf("scale(4) = %v, want 10", got)
	}
	if res.Stats.Insns != 3 {
		t.Errorf("insns = %d, want 3", res.Stats.Insns)
	}
	if res.Stats.Cycles == 0 {
		t.Error("cycles = 0")
	}
}

func TestSumLoopFunctional(t *testing.T) {
	p := buildSumLoop()
	img := NewMemory(1 << 16)
	base := img.Alloc(10 * 4)
	want := float32(0)
	for i := 0; i < 10; i++ {
		img.SetF32(base+uint64(i*4), float32(i)+0.5)
		want += float32(i) + 0.5
	}
	m, err := New(p, img, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(base, uint64(uint32(10)))
	if err != nil {
		t.Fatal(err)
	}
	got := math.Float32frombits(uint32(res.Rets[0]))
	if got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestDeterministicTiming(t *testing.T) {
	p := buildSumLoop()
	run := func() Stats {
		img := NewMemory(1 << 16)
		base := img.Alloc(64 * 4)
		for i := 0; i < 64; i++ {
			img.SetF32(base+uint64(i*4), 1)
		}
		m, _ := New(p, img, DefaultConfig())
		res, err := m.Run(base, uint64(uint32(64)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Insns != b.Insns {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestDependentOpsSerialize(t *testing.T) {
	// A chain of dependent FP adds must take at least lat*n cycles; two
	// independent chains must overlap and finish sooner per add.
	build := func(dependent bool) *ir.Program {
		p := ir.NewProgram("k")
		f := p.NewFunc("k", []ir.Type{ir.F32, ir.F32}, []ir.Type{ir.F32})
		bb := f.NewBlock("entry")
		bu := ir.At(f, bb)
		a, b := f.Params[0], f.Params[1]
		if dependent {
			x := a
			for i := 0; i < 16; i++ {
				x = bu.Bin(ir.FAdd, ir.F32, x, b)
			}
			bu.Ret(x)
		} else {
			x, y := a, b
			for i := 0; i < 8; i++ {
				x = bu.Bin(ir.FAdd, ir.F32, x, a)
				y = bu.Bin(ir.FAdd, ir.F32, y, b)
			}
			z := bu.Bin(ir.FAdd, ir.F32, x, y)
			bu.Ret(z)
		}
		if err := p.Finalize(); err != nil {
			panic(err)
		}
		return p
	}
	one := uint64(math.Float32bits(1))
	dep := runProg(t, build(true), DefaultConfig(), 1024, one, one).Stats.Cycles
	indep := runProg(t, build(false), DefaultConfig(), 1024, one, one).Stats.Cycles
	if dep <= indep {
		t.Errorf("dependent chain (%d cycles) not slower than independent chains (%d cycles)", dep, indep)
	}
	// 16 dependent 4-cycle adds ≥ 64 cycles.
	if dep < 64 {
		t.Errorf("dependent chain = %d cycles, want ≥ 64", dep)
	}
}

func TestStructuralHazardOnFPU(t *testing.T) {
	// Independent FP ops still contend for the single FP unit: n
	// independent fdivs (unpipelined, 15 cycles) take ≈ 15n cycles.
	p := ir.NewProgram("k")
	f := p.NewFunc("k", []ir.Type{ir.F32, ir.F32}, []ir.Type{ir.F32})
	bb := f.NewBlock("entry")
	bu := ir.At(f, bb)
	var last ir.Reg
	for i := 0; i < 4; i++ {
		last = bu.Bin(ir.FDiv, ir.F32, f.Params[0], f.Params[1])
	}
	bu.Ret(last)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	one := uint64(math.Float32bits(1))
	cycles := runProg(t, p, DefaultConfig(), 1024, one, one).Stats.Cycles
	if cycles < 4*15 {
		t.Errorf("4 unpipelined fdivs = %d cycles, want ≥ 60", cycles)
	}
}

// TestScoreboardWidth pins the fixed-width structural scoreboard to the
// unit counts: issueAt picks between exactly fuWidth = 2 slots, so a
// unit with more instances would silently lose the extra ones, and one
// with none would never issue.
func TestScoreboardWidth(t *testing.T) {
	if fuWidth != 2 {
		t.Fatalf("fuWidth = %d; issueAt compares exactly two slots", fuWidth)
	}
	for fu, n := range fuCount {
		if n < 1 || n > fuWidth {
			t.Errorf("functional unit %d has %d instances; the scoreboard holds 1..%d", fu, n, fuWidth)
		}
	}
}

func TestDualIssueBeatsSingleIssue(t *testing.T) {
	p := buildSumLoop()
	run := func(width int) uint64 {
		img := NewMemory(1 << 16)
		base := img.Alloc(256 * 4)
		cfg := DefaultConfig()
		cfg.IssueWidth = width
		m, _ := New(p, img, cfg)
		res, err := m.Run(base, uint64(uint32(256)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	if w2, w1 := run(2), run(1); w2 >= w1 {
		t.Errorf("dual issue (%d cycles) not faster than single issue (%d)", w2, w1)
	}
}

func TestCacheTimingVisible(t *testing.T) {
	// Summing a large array twice: second machine run over the same
	// (warm) hierarchy must be faster.
	p := buildSumLoop()
	img := NewMemory(1 << 20)
	base := img.Alloc(4096 * 4)
	m, _ := New(p, img, DefaultConfig())
	r1, err := m.Run(base, uint64(uint32(4096)))
	if err != nil {
		t.Fatal(err)
	}
	cold := r1.Stats.Cycles
	r2, err := m.Run(base, uint64(uint32(4096)))
	if err != nil {
		t.Fatal(err)
	}
	warm := r2.Stats.Cycles - cold
	if warm >= cold {
		t.Errorf("warm pass (%d cycles) not faster than cold pass (%d)", warm, cold)
	}
	if r2.Stats.L1D.Misses == 0 {
		t.Error("no L1D misses on a 16KB sweep")
	}
}

func TestBranchPenaltyCosts(t *testing.T) {
	p := buildSumLoop()
	run := func(penalty int) uint64 {
		img := NewMemory(1 << 16)
		base := img.Alloc(128 * 4)
		cfg := DefaultConfig()
		cfg.BranchPenalty = penalty
		m, _ := New(p, img, cfg)
		res, err := m.Run(base, uint64(uint32(128)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	if fast, slow := run(0), run(8); fast >= slow {
		t.Errorf("branch penalty has no effect: %d vs %d", fast, slow)
	}
}

func TestCallMachinery(t *testing.T) {
	p := ir.NewProgram("main")
	callee := p.NewFunc("double", []ir.Type{ir.I32}, []ir.Type{ir.I32})
	cb := callee.NewBlock("entry")
	cbu := ir.At(callee, cb)
	two := cbu.ConstI32(2)
	r := cbu.Bin(ir.Mul, ir.I32, callee.Params[0], two)
	cbu.Ret(r)

	mainF := p.NewFunc("main", []ir.Type{ir.I32}, []ir.Type{ir.I32})
	mb := mainF.NewBlock("entry")
	mbu := ir.At(mainF, mb)
	r1 := mbu.Call("double", 1, mainF.Params[0])
	r2 := mbu.Call("double", 1, r1[0])
	mbu.Ret(r2[0])
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := runProg(t, p, DefaultConfig(), 1024, uint64(uint32(7)))
	if got := int32(uint32(res.Rets[0])); got != 28 {
		t.Errorf("main(7) = %d, want 28", got)
	}
}

func TestDivisionByZeroFails(t *testing.T) {
	p := ir.NewProgram("k")
	f := p.NewFunc("k", []ir.Type{ir.I32, ir.I32}, []ir.Type{ir.I32})
	bb := f.NewBlock("entry")
	bu := ir.At(f, bb)
	r := bu.Bin(ir.SDiv, ir.I32, f.Params[0], f.Params[1])
	bu.Ret(r)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	m, _ := New(p, NewMemory(64), DefaultConfig())
	if _, err := m.Run(uint64(uint32(1)), 0); err == nil {
		t.Error("division by zero did not error")
	}
}

func TestInstructionLimit(t *testing.T) {
	// An infinite loop must be cut off by MaxInsns.
	p := ir.NewProgram("spin")
	f := p.NewFunc("spin", nil, nil)
	bb := f.NewBlock("entry")
	ir.At(f, bb).Jmp(bb)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInsns = 1000
	m, _ := New(p, NewMemory(64), cfg)
	if _, err := m.Run(); !errors.Is(err, ErrInsnBudget) {
		t.Errorf("infinite loop: err = %v, want ErrInsnBudget", err)
	}
}

func TestCycleBudgetWatchdog(t *testing.T) {
	// The cycle watchdog must halt a non-terminating program with
	// ErrCycleBudget and hand back the statistics gathered so far.
	p := ir.NewProgram("spin")
	f := p.NewFunc("spin", nil, nil)
	bb := f.NewBlock("entry")
	ir.At(f, bb).Jmp(bb)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 500
	m, _ := New(p, NewMemory(64), cfg)
	res, err := m.Run()
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("err = %v, want ErrCycleBudget", err)
	}
	if res == nil {
		t.Fatal("budget halt returned no partial result")
	}
	if res.Stats.Insns == 0 || res.Stats.Cycles == 0 {
		t.Errorf("partial stats empty: %d insns, %d cycles", res.Stats.Insns, res.Stats.Cycles)
	}
	if res.Stats.Cycles > cfg.MaxCycles+16 {
		t.Errorf("halted at cycle %d, far past the %d budget", res.Stats.Cycles, cfg.MaxCycles)
	}
}

func TestMemoInstructionsWithoutUnitFail(t *testing.T) {
	p := ir.NewProgram("k")
	f := p.NewFunc("k", []ir.Type{ir.F32}, []ir.Type{ir.F32})
	bb := f.NewBlock("entry")
	bu := ir.At(f, bb)
	bu.RegCRC(ir.F32, f.Params[0], 0, 0)
	bu.Ret(f.Params[0])
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	m, _ := New(p, NewMemory(64), DefaultConfig())
	if _, err := m.Run(uint64(math.Float32bits(1))); err == nil {
		t.Error("reg_crc without memo unit did not error")
	}
}

// buildMemoizedSqrt builds a kernel with the Fig. 1 branch structure:
// feed input, lookup, on hit return LUT data, on miss compute sqrt and
// update.
func buildMemoizedSqrt(trunc uint8) *ir.Program {
	p := ir.NewProgram("msqrt")
	f := p.NewFunc("msqrt", []ir.Type{ir.F32}, []ir.Type{ir.F32})
	entry := f.NewBlock("entry")
	hitB := f.NewBlock("hit")
	missB := f.NewBlock("miss")
	bu := ir.At(f, entry)
	bu.RegCRC(ir.F32, f.Params[0], 0, trunc)
	data, hit := bu.Lookup(ir.F32, 0)
	bu.Br(hit, hitB, missB)
	bu.SetBlock(hitB).Ret(data)
	bu.SetBlock(missB)
	r := bu.Un(ir.Sqrt, ir.F32, f.Params[0])
	bu.Update(ir.F32, r, 0)
	bu.Ret(r)
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

func TestMemoizedKernelHitPath(t *testing.T) {
	cfg := DefaultConfig()
	mc := memo.DefaultConfig()
	mc.Monitor.Enabled = false
	cfg.Memo = &mc
	m, err := New(buildMemoizedSqrt(0), NewMemory(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := uint64(math.Float32bits(9.0))
	r1, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(uint32(r1.Rets[0])); got != 3.0 {
		t.Fatalf("first msqrt(9) = %v, want 3 (miss path)", got)
	}
	insnsMiss := r1.Stats.Insns

	r2, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(uint32(r2.Rets[0])); got != 3.0 {
		t.Fatalf("second msqrt(9) = %v, want 3 (hit path)", got)
	}
	insnsHit := r2.Stats.Insns - insnsMiss
	if insnsHit >= insnsMiss {
		t.Errorf("hit path (%d insns) not shorter than miss path (%d)", insnsHit, insnsMiss)
	}
	ms := m.MemoUnit().Stats()
	if ms.Lookups != 2 || ms.L1Hits != 1 || ms.Misses != 1 || ms.Updates != 1 {
		t.Errorf("memo stats = %+v", ms)
	}
	if r2.Stats.MemoInsns == 0 {
		t.Error("memo instructions not counted")
	}
	if r2.Stats.Energy.CRCBytes != 8 {
		t.Errorf("CRC bytes = %d, want 8", r2.Stats.Energy.CRCBytes)
	}
}

func TestMemoizedKernelTruncationHitsOnSimilar(t *testing.T) {
	cfg := DefaultConfig()
	mc := memo.DefaultConfig()
	mc.Monitor.Enabled = false
	cfg.Memo = &mc
	m, err := New(buildMemoizedSqrt(12), NewMemory(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(uint64(math.Float32bits(9.0))); err != nil {
		t.Fatal(err)
	}
	// A slightly different input must hit thanks to 12-bit truncation
	// and return the memoized (approximate) result.
	r, err := m.Run(uint64(math.Float32bits(9.0001)))
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(uint32(r.Rets[0])); got != 3.0 {
		t.Errorf("msqrt(9.0001) = %v, want memoized 3.0", got)
	}
	if m.MemoUnit().Stats().L1Hits != 1 {
		t.Errorf("memo stats = %+v, want 1 hit", m.MemoUnit().Stats())
	}
}

func TestIPC(t *testing.T) {
	s := Stats{Cycles: 100, Insns: 150}
	if s.IPC() != 1.5 {
		t.Errorf("IPC = %v, want 1.5", s.IPC())
	}
	if (Stats{}).IPC() != 0 {
		t.Error("empty IPC != 0")
	}
}

func TestMemoryTypedAccessors(t *testing.T) {
	img := NewMemory(1024)
	a := img.Alloc(64)
	img.SetF32(a, 1.25)
	img.SetF64(a+8, -2.5)
	img.SetI32(a+16, -7)
	img.SetI64(a+24, 1<<40)
	if img.F32(a) != 1.25 || img.F64(a+8) != -2.5 || img.I32(a+16) != -7 || img.I64(a+24) != 1<<40 {
		t.Error("typed accessors round-trip failed")
	}
}

func TestMemoryAllocAlignsAndBumps(t *testing.T) {
	img := NewMemory(1024)
	a := img.Alloc(3)
	b := img.Alloc(8)
	if a%8 != 0 || b%8 != 0 {
		t.Errorf("allocations not 8-aligned: %d, %d", a, b)
	}
	if b <= a {
		t.Errorf("allocator did not advance: %d then %d", a, b)
	}
}

func TestMemoryOutOfBoundsErrors(t *testing.T) {
	img := NewMemory(16)
	if _, err := img.LoadRaw(ir.F64, 12); !errors.Is(err, ErrOOBAccess) {
		t.Errorf("OOB load: err = %v, want ErrOOBAccess", err)
	}
	if err := img.StoreRaw(ir.I32, 14, 1); !errors.Is(err, ErrOOBAccess) {
		t.Errorf("OOB store: err = %v, want ErrOOBAccess", err)
	}
	if _, err := img.LoadRaw(ir.I64, ^uint64(0)-3); !errors.Is(err, ErrOOBAccess) {
		t.Errorf("wrapping load: err = %v, want ErrOOBAccess", err)
	}
	if img.Err() != nil {
		t.Errorf("direct raw accesses must not poison the image: %v", img.Err())
	}

	// Typed helpers record the first failure instead of returning it.
	img.SetF32(100, 1)
	if !errors.Is(img.Err(), ErrOOBAccess) {
		t.Errorf("staging error not recorded: %v", img.Err())
	}

	exhausted := NewMemory(64)
	if base := exhausted.Alloc(128); base != 0 {
		t.Errorf("exhausted Alloc returned %d, want 0", base)
	}
	if !errors.Is(exhausted.Err(), ErrOOM) {
		t.Errorf("exhaustion error not recorded: %v", exhausted.Err())
	}
}

func TestHookObservesExecution(t *testing.T) {
	var ops []ir.Op
	var addrs []uint64
	cfg := DefaultConfig()
	cfg.Hook = func(e ExecInfo) {
		ops = append(ops, e.Instr.Op)
		if e.HasAddr {
			addrs = append(addrs, e.Addr)
		}
	}
	p := buildSumLoop()
	img := NewMemory(1 << 12)
	base := img.Alloc(2 * 4)
	m, _ := New(p, img, cfg)
	if _, err := m.Run(base, uint64(uint32(2))); err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("hook never fired")
	}
	if len(addrs) != 2 || addrs[0] != base || addrs[1] != base+4 {
		t.Errorf("load addresses = %v, want [%d %d]", addrs, base, base+4)
	}
}

func TestWeightPositive(t *testing.T) {
	for _, op := range []ir.Op{ir.Add, ir.FMul, ir.Sqrt, ir.Load, ir.Lookup, ir.Br} {
		if Weight(op) <= 0 {
			t.Errorf("Weight(%s) = %d", op, Weight(op))
		}
	}
	if Weight(ir.Exp) <= Weight(ir.Add) {
		t.Error("math intrinsics should weigh more than ALU ops")
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	p := buildSumLoop()
	img := NewMemory(1 << 20)
	base := img.Alloc(1024 * 4)
	m, _ := New(p, img, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(base, uint64(uint32(1024))); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBTFNPredictor: with a bottom-tested loop (conditional back-edge),
// the backward-taken/forward-not-taken predictor removes the per-
// iteration mispredict that static not-taken suffers.
func TestBTFNPredictor(t *testing.T) {
	// func spin(n i32): body: n--; br n!=0 -> body(backward) : done.
	build := func() *ir.Program {
		p := ir.NewProgram("spin")
		f := p.NewFunc("spin", []ir.Type{ir.I32}, []ir.Type{ir.I32})
		entry := f.NewBlock("entry")
		body := f.NewBlock("body")
		done := f.NewBlock("done")
		bu := ir.At(f, entry)
		n := bu.Mov(ir.I32, f.Params[0])
		one := bu.ConstI32(1)
		zero := bu.ConstI32(0)
		bu.Jmp(body)
		bu.SetBlock(body)
		bu.MovTo(ir.I32, n, bu.Bin(ir.Sub, ir.I32, n, one))
		c := bu.Bin(ir.CmpGT, ir.I32, n, zero)
		bu.Br(c, body, done) // backward taken edge
		bu.SetBlock(done)
		bu.Ret(n)
		if err := p.Finalize(); err != nil {
			panic(err)
		}
		return p
	}
	run := func(btfn bool) uint64 {
		cfg := DefaultConfig()
		cfg.PredictBTFN = btfn
		m, err := New(build(), NewMemory(64), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(uint64(uint32(500)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	notTaken := run(false)
	btfn := run(true)
	if btfn >= notTaken {
		t.Errorf("BTFN (%d cycles) not faster than static not-taken (%d) on a bottom-tested loop", btfn, notTaken)
	}
	// ~500 iterations × BranchPenalty saved, minus one final mispredict.
	saved := notTaken - btfn
	if saved < 500 {
		t.Errorf("BTFN saved only %d cycles over 500 back-edges", saved)
	}
}
