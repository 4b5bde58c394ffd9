// Package quality implements the paper's output-quality metrics (§6):
// the relative squared output error of Eq. 2, the misclassification rate
// used for Jmeint, and the element-wise relative-error CDF of Fig. 10b.
package quality

import (
	"fmt"
	"math"
	"sort"
)

// OutputError computes Eq. 2:
//
//	E_r = Σ_i (x̂_i − x_i)² / Σ_i x_i²
//
// where exact are the results of the unmodified program and approx the
// results with AxMemo enabled.
//
// A non-finite approximate element (NaN or ±Inf, e.g. from a corrupted
// LUT entry) counts as 100% error for that element — it contributes
// x_i² to the numerator — so one poisoned value degrades the score
// instead of turning the whole metric into NaN.
func OutputError(approx, exact []float64) (float64, error) {
	if len(approx) != len(exact) {
		return 0, fmt.Errorf("quality: length mismatch %d vs %d", len(approx), len(exact))
	}
	var num, den float64
	for i := range exact {
		d := approx[i] - exact[i]
		if math.IsNaN(d) || math.IsInf(d, 0) {
			d = exact[i]
			if d == 0 {
				d = 1
			}
		}
		num += d * d
		den += exact[i] * exact[i]
	}
	if den == 0 {
		if num == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return num / den, nil
}

// Misclassification returns the fraction of positions where the boolean
// classifications disagree (the Jmeint metric).
func Misclassification(approx, exact []bool) (float64, error) {
	if len(approx) != len(exact) {
		return 0, fmt.Errorf("quality: length mismatch %d vs %d", len(approx), len(exact))
	}
	if len(exact) == 0 {
		return 0, nil
	}
	bad := 0
	for i := range exact {
		if approx[i] != exact[i] {
			bad++
		}
	}
	return float64(bad) / float64(len(exact)), nil
}

// ElementErrors returns the element-wise relative errors
// |x̂_i − x_i| / |x_i|, clamped to [0, 1]: 1.0 when the exact value is
// zero and the approximate one is not, when either value is NaN, and for
// any error of 100% or more.  The clamp makes the distribution (and its
// CDF, Fig. 10b) robust to garbage-exponent floats from fault injection —
// past total corruption, magnitude carries no information.
func ElementErrors(approx, exact []float64) ([]float64, error) {
	if len(approx) != len(exact) {
		return nil, fmt.Errorf("quality: length mismatch %d vs %d", len(approx), len(exact))
	}
	errs := make([]float64, len(exact))
	for i := range exact {
		switch {
		case math.IsNaN(approx[i]) || math.IsNaN(exact[i]):
			errs[i] = 1
		case exact[i] == 0 && approx[i] == 0:
			errs[i] = 0
		case exact[i] == 0:
			errs[i] = 1
		default:
			e := math.Abs(approx[i]-exact[i]) / math.Abs(exact[i])
			errs[i] = math.Min(e, 1)
		}
	}
	return errs, nil
}

// Mean returns the mean of errs, summed in index order (0 for none).  Of
// ElementErrors it is a bounded [0, 1] quality score directly comparable
// to a guard's relative-error budget.
func Mean(errs []float64) float64 {
	if len(errs) == 0 {
		return 0
	}
	var sum float64
	for _, e := range errs {
		sum += e
	}
	return sum / float64(len(errs))
}

// CDF is an empirical cumulative distribution over relative errors.
type CDF struct {
	sorted []float64
}

// NewCDF builds the empirical CDF of the samples.
func NewCDF(samples []float64) *CDF {
	s := append([]float64{}, samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Points samples the CDF at the given x values (for plotting Fig. 10b's
// series as rows).
func (c *CDF) Points(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = c.At(x)
	}
	return out
}

// CountPoints returns, for each x, the share of samples ≤ x: the same
// floats as NewCDF(samples).Points(xs), counted without sorting.
func CountPoints(samples, xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(samples) == 0 {
		return out
	}
	for i, x := range xs {
		n := 0
		for _, v := range samples {
			if v <= x {
				n++
			}
		}
		out[i] = float64(n) / float64(len(samples))
	}
	return out
}
