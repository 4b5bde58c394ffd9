package axmemo_test

import (
	"math"
	"reflect"
	"testing"

	"axmemo"
)

// buildSquareKernel builds a minimal program through the public API:
// out[i] = in[i]^2 + sqrt(in[i]).
func buildSquareKernel(t *testing.T) *axmemo.Program {
	t.Helper()
	p := axmemo.NewProgram("main")
	axmemo.BuildLibm(p)

	k := p.NewFunc("square", []axmemo.Type{axmemo.F32}, []axmemo.Type{axmemo.F32})
	kb := k.NewBlock("entry")
	bu := axmemo.At(k, kb)
	sq := bu.Bin(axmemo.OpFMul, axmemo.F32, k.Params[0], k.Params[0])
	s := bu.Un(axmemo.OpSqrt, axmemo.F32, k.Params[0])
	bu.Ret(bu.Bin(axmemo.OpFAdd, axmemo.F32, sq, s))

	f := p.NewFunc("main", []axmemo.Type{axmemo.I64, axmemo.I64, axmemo.I32}, nil)
	fb := f.NewBlock("entry")
	cond := f.NewBlock("cond")
	body := f.NewBlock("body")
	done := f.NewBlock("done")
	mb := axmemo.At(f, fb)
	i := mb.Mov(axmemo.I32, mb.ConstI32(0))
	src := mb.Mov(axmemo.I64, f.Params[0])
	dst := mb.Mov(axmemo.I64, f.Params[1])
	one := mb.ConstI32(1)
	four := mb.ConstI64(4)
	mb.Jmp(cond)
	mb.SetBlock(cond)
	lt := mb.Bin(axmemo.OpCmpLT, axmemo.I32, i, f.Params[2])
	mb.Br(lt, body, done)
	mb.SetBlock(body)
	v := mb.Load(axmemo.F32, src, 0)
	r := mb.Call("square", 1, v)
	mb.Store(axmemo.F32, dst, 0, r[0])
	mb.MovTo(axmemo.I32, i, mb.Bin(axmemo.OpAdd, axmemo.I32, i, one))
	mb.MovTo(axmemo.I64, src, mb.Bin(axmemo.OpAdd, axmemo.I64, src, four))
	mb.MovTo(axmemo.I64, dst, mb.Bin(axmemo.OpAdd, axmemo.I64, dst, four))
	mb.Jmp(cond)
	mb.SetBlock(done)
	mb.Ret()

	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	const n = 512
	stage := func(img *axmemo.Memory) (uint64, uint64) {
		src := img.Alloc(n * 4)
		dst := img.Alloc(n * 4)
		for i := 0; i < n; i++ {
			img.SetF32(src+uint64(i*4), float32(i%16))
		}
		return src, dst
	}

	// Baseline.
	baseProg := buildSquareKernel(t)
	baseImg := axmemo.NewMemory(1 << 16)
	bs, bd := stage(baseImg)
	bm, err := axmemo.NewBaselineMachine(baseProg, baseImg)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := bm.Run(bs, bd, n)
	if err != nil {
		t.Fatal(err)
	}

	// Memoized.
	memoProg := buildSquareKernel(t)
	sys := axmemo.NewSystem(memoProg, axmemo.Region{
		Func: "square", LUT: 0, InputParams: []int{0}, ParamTrunc: []uint8{0},
	})
	if err := sys.Transform(); err != nil {
		t.Fatal(err)
	}
	memoImg := axmemo.NewMemory(1 << 16)
	ms, md := stage(memoImg)
	mm, err := sys.NewMachine(memoImg, axmemo.RunOptions{L1KB: 8})
	if err != nil {
		t.Fatal(err)
	}
	memoRes, err := mm.Run(ms, md, n)
	if err != nil {
		t.Fatal(err)
	}

	if memoRes.Stats.Cycles >= baseRes.Stats.Cycles {
		t.Errorf("memoized (%d) not faster than baseline (%d) on 16-value input",
			memoRes.Stats.Cycles, baseRes.Stats.Cycles)
	}
	if hr := memoRes.Stats.Memo.HitRate(); hr < 0.9 {
		t.Errorf("hit rate = %.3f", hr)
	}
	// Exact memoization: identical outputs.
	for i := 0; i < n; i++ {
		a := baseImg.F32(bd + uint64(i*4))
		b := memoImg.F32(md + uint64(i*4))
		if a != b {
			t.Fatalf("output %d: %v vs %v", i, a, b)
		}
	}
	// Spot-check a value.
	want := float32(9*9) + float32(math.Sqrt(9))
	if got := baseImg.F32(bd + 9*4); got != want {
		t.Errorf("square(9) = %v, want %v", got, want)
	}
}

func TestPublicAPIBenchmarkAccess(t *testing.T) {
	if len(axmemo.Benchmarks()) != 10 {
		t.Fatalf("Benchmarks() = %d entries", len(axmemo.Benchmarks()))
	}
	w, err := axmemo.Benchmark("fft")
	if err != nil {
		t.Fatal(err)
	}
	res, err := axmemo.RunExperiment(w, axmemo.ExperimentConfig{
		Name: "L1 (8KB)", Mode: axmemo.ModeHW, L1KB: 8, Scale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate < 0.5 {
		t.Errorf("fft hit rate = %.3f", res.HitRate)
	}
	if _, err := axmemo.Benchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestPublicAPIAnalysis(t *testing.T) {
	p := buildSquareKernel(t)
	img := axmemo.NewMemory(1 << 16)
	src := img.Alloc(64 * 4)
	dst := img.Alloc(64 * 4)
	for i := 0; i < 64; i++ {
		img.SetF32(src+uint64(i*4), float32(i%8))
	}
	sys := axmemo.NewSystem(p)
	a, err := sys.Analyze(img, []uint64{src, dst, 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.DynamicSubgraphs == 0 {
		t.Error("analysis found no candidates")
	}
	if names := axmemo.DiscoverRegions(p, a); len(names) == 0 {
		t.Error("no regions discovered")
	}
}

func TestPublicAPISuite(t *testing.T) {
	s := axmemo.NewSuite(1)
	w, _ := axmemo.Benchmark("fft")
	r1, err := s.Baseline(w)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := s.Baseline(w)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("cached baseline differs from its run")
	}
	if st := s.Store.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Errorf("suite does not cache: store %+v, want one cell read back once", st)
	}
}
