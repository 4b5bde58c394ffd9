package trace

import (
	"math"
	"testing"

	"axmemo/internal/cpu"
	"axmemo/internal/ir"
)

// Truncated reports whether the trace hit MaxEntries.
func (r *Recorder) Truncated() bool { return r.full }

// buildAxpy builds: func axpy(base i64, n i32) — y[i] = 2*x[i] + 1 over an
// interleaved array, exercising loads, stores, arithmetic and a loop.
func buildAxpy() *ir.Program {
	p := ir.NewProgram("axpy")
	f := p.NewFunc("axpy", []ir.Type{ir.I64, ir.I32}, nil)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	body := f.NewBlock("body")
	done := f.NewBlock("done")

	bu := ir.At(f, entry)
	i := bu.ConstI32(0)
	addr := bu.Mov(ir.I64, f.Params[0])
	eight := bu.ConstI64(8)
	two := bu.ConstF32(2)
	one := bu.ConstF32(1)
	inc := bu.ConstI32(1)
	bu.Jmp(loop)

	bu.SetBlock(loop)
	c := bu.Bin(ir.CmpLT, ir.I32, i, f.Params[1])
	bu.Br(c, body, done)

	bu.SetBlock(body)
	x := bu.Load(ir.F32, addr, 0)
	t := bu.Bin(ir.FMul, ir.F32, x, two)
	y := bu.Bin(ir.FAdd, ir.F32, t, one)
	bu.Store(ir.F32, addr, 4, y)
	i2 := bu.Bin(ir.Add, ir.I32, i, inc)
	bu.MovTo(ir.I32, i, i2)
	a2 := bu.Bin(ir.Add, ir.I64, addr, eight)
	bu.MovTo(ir.I64, addr, a2)
	bu.Jmp(loop)

	bu.SetBlock(done)
	bu.Ret()
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

func runTraced(t *testing.T, n int, maxEntries int) *Recorder {
	t.Helper()
	rec := NewRecorder(maxEntries)
	cfg := cpu.DefaultConfig()
	cfg.Hook = rec.Hook()
	img := cpu.NewMemory(1 << 16)
	base := img.Alloc(n * 8)
	for i := 0; i < n; i++ {
		img.SetF32(base+uint64(i*8), float32(i))
	}
	m, err := cpu.New(buildAxpy(), img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(base, uint64(uint32(n))); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderCapturesAllInstructions(t *testing.T) {
	rec := runTraced(t, 4, 0)
	// entry: 6 + jmp = 7; per iteration: loop(2) + body(9) = 11;
	// final loop check: 2; done: ret = 1.
	want := 7 + 4*11 + 2 + 1
	if got := len(rec.Entries()); got != want {
		t.Errorf("trace length = %d, want %d", got, want)
	}
	if rec.Truncated() {
		t.Error("trace reported truncated")
	}
}

func TestRegisterDependencies(t *testing.T) {
	rec := runTraced(t, 1, 0)
	es := rec.Entries()
	// Find the FMul: it must depend on the Load and the const 2.
	for i, e := range es {
		if e.Op == ir.FMul {
			if len(e.Deps) != 2 {
				t.Fatalf("fmul deps = %d, want 2", len(e.Deps))
			}
			sawLoad := false
			for _, d := range e.Deps {
				if es[d].Op == ir.Load {
					sawLoad = true
				}
			}
			if !sawLoad {
				t.Errorf("fmul at %d does not depend on the load", i)
			}
			return
		}
	}
	t.Fatal("no fmul in trace")
}

func TestColdLoadIsLiveIn(t *testing.T) {
	rec := runTraced(t, 1, 0)
	for _, e := range rec.Entries() {
		if e.Op == ir.Load {
			if len(e.Deps) != 1 { // address register only
				t.Errorf("cold load deps = %v", e.Deps)
			}
			found := false
			for _, k := range e.LiveIns {
				if k&(1<<62) != 0 {
					found = true
				}
			}
			if !found {
				t.Error("cold load has no memory live-in key")
			}
			return
		}
	}
	t.Fatal("no load in trace")
}

func TestStoreToLoadDependency(t *testing.T) {
	// Build: store then load same address — the load must depend on
	// the store.
	p := ir.NewProgram("sl")
	f := p.NewFunc("sl", []ir.Type{ir.I64}, []ir.Type{ir.F32})
	bb := f.NewBlock("entry")
	bu := ir.At(f, bb)
	v := bu.ConstF32(3.5)
	bu.Store(ir.F32, f.Params[0], 0, v)
	r := bu.Load(ir.F32, f.Params[0], 0)
	bu.Ret(r)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(0)
	cfg := cpu.DefaultConfig()
	cfg.Hook = rec.Hook()
	img := cpu.NewMemory(1024)
	base := img.Alloc(8)
	m, _ := cpu.New(p, img, cfg)
	res, err := m.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(uint32(res.Rets[0])); got != 3.5 {
		t.Fatalf("load after store = %v", got)
	}
	es := rec.Entries()
	var loadEntry *Entry
	var storeIdx int32 = -1
	for i := range es {
		if es[i].Op == ir.Store {
			storeIdx = int32(i)
		}
		if es[i].Op == ir.Load {
			loadEntry = &es[i]
		}
	}
	if loadEntry == nil || storeIdx < 0 {
		t.Fatal("missing load/store entries")
	}
	dep := false
	for _, d := range loadEntry.Deps {
		if d == storeIdx {
			dep = true
		}
	}
	if !dep {
		t.Errorf("load deps %v do not include store %d", loadEntry.Deps, storeIdx)
	}
}

func TestParamsAreLiveIns(t *testing.T) {
	rec := runTraced(t, 1, 0)
	// The CmpLT uses param n: must carry a param live-in key.
	for _, e := range rec.Entries() {
		if e.Op == ir.CmpLT {
			found := false
			for _, k := range e.LiveIns {
				if k&(1<<63) != 0 {
					found = true
				}
			}
			if !found {
				t.Error("cmp on parameter has no param live-in")
			}
			return
		}
	}
	t.Fatal("no cmp in trace")
}

func TestControlMarked(t *testing.T) {
	rec := runTraced(t, 2, 0)
	for _, e := range rec.Entries() {
		isCtl := e.Op == ir.Br || e.Op == ir.Jmp || e.Op == ir.Ret || e.Op == ir.Call
		if e.Control != isCtl {
			t.Errorf("op %s Control = %v", e.Op, e.Control)
		}
	}
}

func TestTruncation(t *testing.T) {
	rec := runTraced(t, 100, 50)
	if !rec.Truncated() {
		t.Error("bounded recorder did not report truncation")
	}
	if len(rec.Entries()) != 50 {
		t.Errorf("entries = %d, want 50", len(rec.Entries()))
	}
}

func TestKeySpacesDisjoint(t *testing.T) {
	p := ParamKey(3, 7)
	m := MemKey(0xDEAD)
	if p&(1<<63) == 0 || m&(1<<62) == 0 || p == m {
		t.Errorf("key spaces overlap: %#x vs %#x", p, m)
	}
	if ParamKey(3, 7) == ParamKey(4, 7) || ParamKey(3, 7) == ParamKey(3, 8) {
		t.Error("param keys not unique per frame/register")
	}
}
