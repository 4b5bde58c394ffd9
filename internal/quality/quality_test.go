package quality

import (
	"math"
	"testing"
	"testing/quick"
)

// Percentile returns the p-th percentile (p in [0,1]).
func (c *CDF) Percentile(p float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(p * float64(len(c.sorted)-1))
	return c.sorted[idx]
}

func TestOutputErrorExactMatch(t *testing.T) {
	x := []float64{1, 2, 3}
	er, err := OutputError(x, x)
	if err != nil || er != 0 {
		t.Errorf("E_r of identical outputs = %v (%v), want 0", er, err)
	}
}

func TestOutputErrorKnownValue(t *testing.T) {
	exact := []float64{3, 4}  // Σx² = 25
	approx := []float64{3, 5} // Σd² = 1
	er, err := OutputError(approx, exact)
	if err != nil || math.Abs(er-0.04) > 1e-12 {
		t.Errorf("E_r = %v (%v), want 0.04", er, err)
	}
}

func TestOutputErrorMismatch(t *testing.T) {
	if _, err := OutputError([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestOutputErrorZeroDenominator(t *testing.T) {
	er, err := OutputError([]float64{1}, []float64{0})
	if err != nil || !math.IsInf(er, 1) {
		t.Errorf("E_r with zero exact = %v", er)
	}
	er, err = OutputError([]float64{0}, []float64{0})
	if err != nil || er != 0 {
		t.Errorf("E_r of all-zero = %v", er)
	}
}

// Property: E_r is non-negative and zero only for identical vectors.
func TestOutputErrorProperties(t *testing.T) {
	f := func(exact []float64) bool {
		for _, v := range exact {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		er, err := OutputError(exact, exact)
		return err == nil && er == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMisclassification(t *testing.T) {
	a := []bool{true, false, true, true}
	b := []bool{true, true, true, false}
	r, err := Misclassification(a, b)
	if err != nil || r != 0.5 {
		t.Errorf("misclassification = %v (%v), want 0.5", r, err)
	}
	if r, _ := Misclassification(nil, nil); r != 0 {
		t.Error("empty misclassification != 0")
	}
	if _, err := Misclassification([]bool{true}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestElementErrors(t *testing.T) {
	errs, err := ElementErrors([]float64{1.1, 0, 2}, []float64{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(errs[0]-0.1) > 1e-9 || errs[1] != 0 || errs[2] != 1 {
		t.Errorf("element errors = %v", errs)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{0.0, 0.1, 0.2, 0.3, 0.4})
	if got := c.At(0.2); got != 0.6 {
		t.Errorf("CDF(0.2) = %v, want 0.6", got)
	}
	if got := c.At(-1); got != 0 {
		t.Errorf("CDF(-1) = %v, want 0", got)
	}
	if got := c.At(1); got != 1 {
		t.Errorf("CDF(1) = %v, want 1", got)
	}
}

func TestCDFPercentile(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 2, 4})
	if got := c.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := c.Percentile(1); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := c.Percentile(0.5); got != 3 {
		t.Errorf("P50 = %v", got)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0.1, 0.2})
	pts := c.Points([]float64{0.05, 0.15, 0.25})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("points = %v, want %v", pts, want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 || c.Percentile(0.5) != 0 {
		t.Error("empty CDF misbehaves")
	}
}

// Property: CDF is monotone non-decreasing.
func TestCDFMonotone(t *testing.T) {
	f := func(samples []float64, a, b float64) bool {
		for _, v := range samples {
			if math.IsNaN(v) {
				return true
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		c := NewCDF(samples)
		return c.At(a) <= c.At(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: counting samples ≤ x gives the sorted CDF's points bit for
// bit (NaN-free samples: ElementErrors never yields NaN).
func TestCountPointsMatchesCDF(t *testing.T) {
	same := func(samples, xs []float64) bool {
		got, want := CountPoints(samples, xs), NewCDF(samples).Points(xs)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	points := []float64{0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
	for _, samples := range [][]float64{
		nil,
		{0},
		{math.Copysign(0, -1), 0, 1e-6, 1e-6, 0.1, 1, 1},
		{1e-5, 3e-5, 1e-4, 1e-4, 0.5},
	} {
		if !same(samples, points) {
			t.Errorf("CountPoints(%v) = %v, want %v", samples,
				CountPoints(samples, points), NewCDF(samples).Points(points))
		}
	}
	f := func(samples, xs []float64) bool {
		for _, v := range append(append([]float64{}, samples...), xs...) {
			if math.IsNaN(v) {
				return true
			}
		}
		return same(samples, xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOutputErrorNonFiniteApprox(t *testing.T) {
	// A NaN or Inf approximate element counts as 100% error for that
	// element (contributes x_i² to the numerator), keeping E_r finite.
	exact := []float64{3, 4} // Σx² = 25
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		er, err := OutputError([]float64{bad, 4}, exact)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(er) || math.IsInf(er, 0) {
			t.Fatalf("E_r with approx %v is %v, want finite", bad, er)
		}
		if math.Abs(er-9.0/25.0) > 1e-12 {
			t.Errorf("E_r with approx %v = %v, want 0.36", bad, er)
		}
	}
	// Non-finite against a zero exact element substitutes a unit error.
	er, err := OutputError([]float64{math.NaN()}, []float64{0})
	if err != nil || !math.IsInf(er, 1) {
		t.Errorf("E_r NaN-vs-0 = %v (%v), want +Inf (1/0)", er, err)
	}
}

func TestElementErrorsClamped(t *testing.T) {
	approx := []float64{math.NaN(), math.Inf(1), 1e30, 0.5, 2}
	exact := []float64{1, 1, 1, math.NaN(), 2}
	errs, err := ElementErrors(approx, exact)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 1, 1, 0}
	for i := range want {
		if errs[i] != want[i] {
			t.Errorf("errs[%d] = %v, want %v", i, errs[i], want[i])
		}
	}
	for _, e := range errs {
		if e < 0 || e > 1 {
			t.Fatalf("element error %v out of [0, 1]", e)
		}
	}
}

func TestMeanError(t *testing.T) {
	// (0.1 + 1 + 0) / 3: one 10% error, one total corruption, one exact.
	errs, err := ElementErrors([]float64{1.1, math.NaN(), 5}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if me := Mean(errs); math.Abs(me-1.1/3) > 1e-9 {
		t.Errorf("Mean = %v, want %v", me, 1.1/3)
	}
	if me := Mean(nil); me != 0 {
		t.Errorf("Mean of empty = %v, want 0", me)
	}
	if _, err := ElementErrors([]float64{1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}
