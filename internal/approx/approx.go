// Package approx implements AxMemo's input-approximation mechanism: bit
// truncation of memoization inputs before they are fed to the hashing unit
// (ISCA'19 §3.1, "Approximation for memoization").
//
// Truncating the n least-significant bits rounds a floating-point input
// down by a relative precision (clearing mantissa bits) and an integer
// input down by an absolute precision (clearing value bits).  Similar
// inputs therefore hash to the same LUT tag, which is what raises the hit
// rate for approximable applications.  The number of truncated bits is
// chosen per input variable by the compiler (see internal/compiler).
package approx

// Mask32 clears the n least-significant bits of a 32-bit lane.  n is
// clamped to [0, 32].
func Mask32(x uint32, n uint) uint32 {
	if n == 0 {
		return x
	}
	if n >= 32 {
		return 0
	}
	return x &^ ((1 << n) - 1)
}

// Mask64 clears the n least-significant bits of a 64-bit lane.  n is
// clamped to [0, 64].
func Mask64(x uint64, n uint) uint64 {
	if n == 0 {
		return x
	}
	if n >= 64 {
		return 0
	}
	return x &^ ((1 << n) - 1)
}

// Lane truncates a value held as raw bits in a lane of size bytes (4 or
// 8).  This is the operation the ld_crc/reg_crc ISA extensions apply to
// the loaded/register value before forwarding it to the CRC unit.
func Lane(raw uint64, sizeBytes int, n uint) uint64 {
	if sizeBytes <= 4 {
		return uint64(Mask32(uint32(raw), n))
	}
	return Mask64(raw, n)
}
