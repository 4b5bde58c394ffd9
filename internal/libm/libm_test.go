package libm

import (
	"math"
	"math/rand"
	"testing"

	"axmemo/internal/cpu"
	"axmemo/internal/ir"
)

// Tanf mirrors the IR routine libm.tanf: sin/cos of the shared quadrant
// machinery.  (Cephes uses a dedicated rational approximation; the
// quotient form shares the already-verified core and is accurate to a few
// ulp away from the poles, which is all the simulator's workloads need.)
//
// No workload's golden model uses tan or pow, so these two Go mirrors
// are test references.
func Tanf(x float32) float32 {
	return Sinf(x) / Cosf(x)
}

// Powf mirrors the IR routine libm.powf for positive bases:
// x^y = exp(y·log(x)).  Non-positive bases return NaN except x^0 = 1.
func Powf(x, y float32) float32 {
	if y == 0 {
		return 1
	}
	if x <= 0 {
		return Logf(x) // NaN for x <= 0, matching the IR routine
	}
	return Expf(y * Logf(x))
}

// runner executes one libm IR routine on the simulator.
type runner struct {
	m *cpu.Machine
}

func newRunner(t *testing.T, entry string) *runner {
	t.Helper()
	p := ir.NewProgram(entry)
	BuildInto(p)
	if err := p.Finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	m, err := cpu.New(p, cpu.NewMemory(64), cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &runner{m: m}
}

func (r *runner) call1(t *testing.T, x float32) float32 {
	t.Helper()
	res, err := r.m.Run(uint64(math.Float32bits(x)))
	if err != nil {
		t.Fatalf("run(%v): %v", x, err)
	}
	return math.Float32frombits(uint32(res.Rets[0]))
}

func (r *runner) call2(t *testing.T, a, b float32) float32 {
	t.Helper()
	res, err := r.m.Run(uint64(math.Float32bits(a)), uint64(math.Float32bits(b)))
	if err != nil {
		t.Fatalf("run(%v, %v): %v", a, b, err)
	}
	return math.Float32frombits(uint32(res.Rets[0]))
}

// assertBitEqual checks the IR routine and its Go mirror agree bitwise.
func assertBitEqual(t *testing.T, name string, x, got, want float32) {
	t.Helper()
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("%s(%v): IR %v (%#x) != mirror %v (%#x)",
			name, x, got, math.Float32bits(got), want, math.Float32bits(want))
	}
}

// TestMirrorsBitExact: the IR routines must equal their Go mirrors
// bitwise over a dense random sample — this is what lets the workloads'
// goldens double as exact references.
func TestMirrorsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name   string
		mirror func(float32) float32
		gen    func() float32
	}{
		{FnSin, Sinf, func() float32 { return float32(rng.Float64()*200 - 100) }},
		{FnCos, Cosf, func() float32 { return float32(rng.Float64()*200 - 100) }},
		{FnExp, Expf, func() float32 { return float32(rng.Float64()*180 - 90) }},
		{FnLog, Logf, func() float32 { return float32(rng.Float64() * 1e6) }},
		{FnAsin, Asinf, func() float32 { return float32(rng.Float64()*2 - 1) }},
		{FnAcos, Acosf, func() float32 { return float32(rng.Float64()*2 - 1) }},
		{FnAtan, Atanf, func() float32 { return float32(rng.Float64()*60 - 30) }},
		{FnTan, Tanf, func() float32 { return float32(rng.Float64()*6 - 3) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := newRunner(t, c.name)
			for i := 0; i < 500; i++ {
				x := c.gen()
				assertBitEqual(t, c.name, x, r.call1(t, x), c.mirror(x))
			}
		})
	}
}

func TestAtan2MirrorBitExact(t *testing.T) {
	r := newRunner(t, FnAtan2)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		y := float32(rng.Float64()*20 - 10)
		x := float32(rng.Float64()*20 - 10)
		got := r.call2(t, y, x)
		want := Atan2f(y, x)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("atan2(%v, %v): IR %v != mirror %v", y, x, got, want)
		}
	}
	// Axis cases.
	for _, c := range [][2]float32{{1, 0}, {-1, 0}, {0, 0}, {0, -1}, {0, 1}} {
		got := r.call2(t, c[0], c[1])
		want := Atan2f(c[0], c[1])
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("atan2(%v, %v): IR %v != mirror %v", c[0], c[1], got, want)
		}
	}
}

// TestAccuracy: the mirrors must track the reference libm to float32
// grade accuracy on the ranges the benchmarks use.
func TestAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(name string, got, want float64, absTol, relTol float64) {
		t.Helper()
		diff := math.Abs(got - want)
		if diff <= absTol {
			return
		}
		if want != 0 && diff/math.Abs(want) <= relTol {
			return
		}
		t.Errorf("%s: got %v, want %v (diff %g)", name, got, want, diff)
	}
	for i := 0; i < 2000; i++ {
		x := rng.Float64()*20 - 10
		check("sin", float64(Sinf(float32(x))), math.Sin(x), 2e-6, 1e-5)
		check("cos", float64(Cosf(float32(x))), math.Cos(x), 2e-6, 1e-5)
		check("atan", float64(Atanf(float32(x))), math.Atan(x), 2e-6, 1e-5)
		e := rng.Float64()*40 - 30
		check("exp", float64(Expf(float32(e))), math.Exp(e), 1e-30, 3e-6)
		l := rng.Float64() * 1e4
		if l > 0 {
			check("log", float64(Logf(float32(l))), math.Log(l), 2e-6, 1e-5)
		}
		u := rng.Float64()*2 - 1
		check("asin", float64(Asinf(float32(u))), math.Asin(u), 4e-6, 2e-5)
		check("acos", float64(Acosf(float32(u))), math.Acos(u), 4e-6, 2e-5)
		yy := rng.Float64()*4 - 2
		xx := rng.Float64()*4 - 2
		if xx != 0 || yy != 0 {
			check("atan2", float64(Atan2f(float32(yy), float32(xx))), math.Atan2(yy, xx), 4e-6, 2e-5)
		}
	}
}

func TestPowMirrorBitExact(t *testing.T) {
	r := newRunner(t, FnPow)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		x := float32(rng.Float64() * 50)
		y := float32(rng.Float64()*8 - 4)
		got := r.call2(t, x, y)
		want := Powf(x, y)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("pow(%v, %v): IR %v != mirror %v", x, y, got, want)
		}
	}
	// Edge cases.
	if got := r.call2(t, 5, 0); got != 1 {
		t.Errorf("pow(5, 0) = %v, want 1", got)
	}
	if got := r.call2(t, -2, 3); !math.IsNaN(float64(got)) {
		t.Errorf("pow(-2, 3) = %v, want NaN (mirror convention)", got)
	}
}

func TestPowAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		x := rng.Float64()*20 + 0.1
		y := rng.Float64()*6 - 3
		got := float64(Powf(float32(x), float32(y)))
		want := math.Pow(x, y)
		if math.Abs(got-want) > 2e-5*math.Abs(want)+1e-12 {
			t.Fatalf("pow(%v, %v) = %v, want %v", x, y, got, want)
		}
	}
}

func TestTanAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 1000; i++ {
		x := rng.Float64()*2.8 - 1.4 // away from the poles
		got := float64(Tanf(float32(x)))
		want := math.Tan(x)
		if math.Abs(got-want) > 2e-5*math.Abs(want)+2e-6 {
			t.Fatalf("tan(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestSpecialValues(t *testing.T) {
	if Expf(-200) != 0 {
		t.Errorf("Expf(-200) = %v, want 0 (underflow)", Expf(-200))
	}
	if !math.IsInf(float64(Expf(200)), 1) {
		t.Errorf("Expf(200) = %v, want +Inf", Expf(200))
	}
	if !math.IsNaN(float64(Logf(-1))) {
		t.Errorf("Logf(-1) = %v, want NaN", Logf(-1))
	}
	if !math.IsNaN(float64(Logf(0))) {
		t.Errorf("Logf(0) = %v, want NaN", Logf(0))
	}
	if Sinf(0) != 0 || Cosf(0) != 1 {
		t.Error("sin(0)/cos(0) wrong")
	}
	if Atan2f(0, 0) != 0 {
		t.Error("atan2(0,0) != 0")
	}
}

func TestBuildIntoIdempotent(t *testing.T) {
	p := ir.NewProgram(FnSin)
	BuildInto(p)
	n := len(p.Funcs)
	BuildInto(p) // second call must not duplicate or panic
	if len(p.Funcs) != n {
		t.Errorf("BuildInto added functions twice: %d -> %d", n, len(p.Funcs))
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestRoutinesAreLongSequences: the point of the software math library —
// each routine is a multi-instruction sequence, so memoizing a kernel
// that calls it removes real work.
func TestRoutinesAreLongSequences(t *testing.T) {
	p := ir.NewProgram(FnSin)
	BuildInto(p)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{FnSin, FnCos, FnExp, FnLog, FnAsin, FnAtan} {
		f := p.Funcs[name]
		if f == nil {
			t.Fatalf("%s missing", name)
		}
		if n := f.InstrCount(); n < 15 {
			t.Errorf("%s has %d instructions; expected a substantial sequence", name, n)
		}
	}
}

func BenchmarkIRSinf(b *testing.B) {
	p := ir.NewProgram(FnSin)
	BuildInto(p)
	if err := p.Finalize(); err != nil {
		b.Fatal(err)
	}
	m, _ := cpu.New(p, cpu.NewMemory(64), cpu.DefaultConfig())
	arg := uint64(math.Float32bits(1.234))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(arg); err != nil {
			b.Fatal(err)
		}
	}
}
