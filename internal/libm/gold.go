// Package libm provides a software math library for the simulator's IR,
// standing in for the libm routines the benchmarks call on a real ISA.
// On the modeled in-order core, sin/cos/exp/log are not single
// instructions but dozens-of-instruction Cephes-style polynomial
// routines; memoizing a kernel therefore removes a *long sequence of
// instructions* — the very effect AxMemo monetizes (ISCA'19 §1).
//
// Each routine exists twice, kept in op-for-op lockstep:
//
//   - an IR builder (BuildInto) that emits the routine as an IR function
//     named "libm.<name>", and
//   - a Go mirror (Sinf, Cosf, ...) used by the workloads' golden
//     implementations.
//
// Because the simulator's float32 semantics equal Go's (every operation
// rounds once), the IR routine and its mirror produce bit-identical
// results for every input; the package tests assert this exhaustively.
package libm

import "math"

// Float32 constants shared by both sides.
const (
	fourOverPi = float32(1.27323954) // 4/π
	pio2f      = float32(1.5707964)  // π/2
	pio4f      = float32(0.7853982)  // π/4
	pif        = float32(3.1415927)  // π

	// Extended-precision π/4 split (Cephes DP1/DP2/DP3).
	sinDP1 = float32(0.78515625)
	sinDP2 = float32(2.4187564849853515625e-4)
	sinDP3 = float32(3.77489497744594108e-8)

	// exp reduction constants.
	log2ef = float32(1.44269504)
	expC1  = float32(0.693359375)
	expC2  = float32(-2.12194440e-4)

	sqrthf = float32(0.70710677)
)

func fabs32(x float32) float32 { return math.Float32frombits(math.Float32bits(x) &^ (1 << 31)) }
func floor32(x float32) float32 {
	return float32(math.Floor(float64(x)))
}
func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// sinCosCore evaluates the Cephes quadrant machinery shared by Sinf and
// Cosf; wantCos selects the phase.
func sinCosCore(x float32, wantCos bool) float32 {
	sign := x < 0
	ax := fabs32(x)
	jf := floor32(ax * fourOverPi)
	j := int32(jf)
	// Round the octant up to even so the residual lies in [−π/4, π/4],
	// where the polynomials converge (Cephes j = (j+1) & ~1).
	if j&1 == 1 {
		j = j + 1
		jf = jf + 1
	}
	r := ax - jf*sinDP1
	r = r - jf*sinDP2
	r = r - jf*sinDP3
	q := (j >> 1) & 3
	z := r * r

	// sin polynomial on the reduced interval.
	ps := float32(-1.9515295891e-4)
	ps = ps*z + 8.3321608736e-3
	ps = ps*z - 1.6666654611e-1
	ps = ps*z*r + r

	// cos polynomial on the reduced interval.
	pc := float32(2.443315711809948e-5)
	pc = pc*z - 1.388731625493765e-3
	pc = pc*z + 4.166664568298827e-2
	pc = pc*z*z - 0.5*z
	pc = pc + 1

	var res float32
	var negate bool
	if wantCos {
		// cos quadrants: 0→pc, 1→−ps, 2→−pc, 3→ps.
		if q&1 == 0 {
			res = pc
		} else {
			res = ps
		}
		negate = q == 1 || q == 2
	} else {
		// sin quadrants: 0→ps, 1→pc, 2→−ps, 3→−pc.
		if q&1 == 0 {
			res = ps
		} else {
			res = pc
		}
		negate = q >= 2
		if sign {
			negate = !negate
		}
	}
	if negate {
		res = -res
	}
	return res
}

// Sinf mirrors the IR routine libm.sinf.
func Sinf(x float32) float32 { return sinCosCore(x, false) }

// Cosf mirrors the IR routine libm.cosf.
func Cosf(x float32) float32 { return sinCosCore(x, true) }

// Expf mirrors the IR routine libm.expf.
func Expf(x float32) float32 {
	z := floor32(log2ef*x + 0.5)
	n := int32(z)
	if n < -126 {
		return 0
	}
	if n > 127 {
		return float32(math.Inf(1))
	}
	r := x - z*expC1
	r = r - z*expC2
	zz := r * r
	p := float32(1.9875691500e-4)
	p = p*r + 1.3981999507e-3
	p = p*r + 8.3334519073e-3
	p = p*r + 4.1665795894e-2
	p = p*r + 1.6666665459e-1
	p = p*r + 5.0000001201e-1
	py := p*zz + r
	py = py + 1
	scale := math.Float32frombits(uint32(n+127) << 23)
	return py * scale
}

// Logf mirrors the IR routine libm.logf.  Non-positive inputs return NaN
// (the benchmarks only take logs of positive values).
func Logf(x float32) float32 {
	if x <= 0 {
		return float32(math.NaN())
	}
	bits := math.Float32bits(x)
	e := int32(bits>>23) - 126
	m := math.Float32frombits(bits&0x007FFFFF | 0x3F000000) // [0.5, 1)
	if m < sqrthf {
		e = e - 1
		m = m + m
	}
	m = m - 1
	z := m * m
	p := float32(7.0376836292e-2)
	p = p*m - 1.1514610310e-1
	p = p*m + 1.1676998740e-1
	p = p*m - 1.2420140846e-1
	p = p*m + 1.4249322787e-1
	p = p*m - 1.6668057665e-1
	p = p*m + 2.0000714765e-1
	p = p*m - 2.4999993993e-1
	p = p*m + 3.3333331174e-1
	ef := float32(e)
	y := m * z * p
	y = y + ef*expC2
	y = y - 0.5*z
	r := m + y
	r = r + ef*expC1
	return r
}

// Asinf mirrors the IR routine libm.asinf.
func Asinf(x float32) float32 {
	sign := x < 0
	a := fabs32(x)
	big := a > 0.5
	var z, r float32
	if big {
		z = 0.5 * (1 - a)
		r = sqrt32(z)
	} else {
		z = a * a
		r = a
	}
	p := float32(4.2163199048e-2)
	p = p*z + 2.4181311049e-2
	p = p*z + 4.5470025998e-2
	p = p*z + 7.4953002686e-2
	p = p*z + 1.6666752422e-1
	y := p*z*r + r
	if big {
		y = pio2f - (y + y)
	}
	if sign {
		y = -y
	}
	return y
}

// Acosf mirrors the IR routine libm.acosf: π/2 − asin(x).
func Acosf(x float32) float32 {
	return pio2f - Asinf(x)
}

// Atanf mirrors the IR routine libm.atanf.
func Atanf(x float32) float32 {
	sign := x < 0
	a := fabs32(x)
	var y, r float32
	switch {
	case a > 2.4142134: // tan(3π/8)
		y = pio2f
		r = -1 / a
	case a > 0.41421357: // tan(π/8)
		y = pio4f
		r = (a - 1) / (a + 1)
	default:
		y = 0
		r = a
	}
	z := r * r
	p := float32(8.05374449538e-2)
	p = p*z - 1.38776856032e-1
	p = p*z + 1.99777106478e-1
	p = p*z - 3.33329491539e-1
	y = y + (p*z*r + r)
	if sign {
		y = -y
	}
	return y
}

// Atan2f mirrors the IR routine libm.atan2f.
func Atan2f(y, x float32) float32 {
	if x > 0 {
		return Atanf(y / x)
	}
	if x < 0 {
		if y >= 0 {
			return Atanf(y/x) + pif
		}
		return Atanf(y/x) - pif
	}
	// x == 0.
	if y > 0 {
		return pio2f
	}
	if y < 0 {
		return -pio2f
	}
	return 0
}
