package approx

import "math"

// Reference truncations of typed values and byte streams, built on the
// production lane masks.  The memoization units truncate raw lanes
// (Lane); these helpers state the paper's precision rules per type
// (§3.1) for the property tests.

// Float32 truncates the n low mantissa bits of f's IEEE-754 encoding,
// implementing the paper's relative-precision rounding for floating-point
// memoization inputs.
func Float32(f float32, n uint) float32 {
	return math.Float32frombits(Mask32(math.Float32bits(f), n))
}

// Int32 truncates the n low bits of a signed 32-bit integer, rounding it
// toward negative infinity in steps of 2^n (absolute precision).
func Int32(v int32, n uint) int32 {
	return int32(Mask32(uint32(v), n))
}

// Int64 truncates the n low bits of a signed 64-bit integer.
func Int64(v int64, n uint) int64 {
	return int64(Mask64(uint64(v), n))
}

// Bytes truncates, in place, each sizeBytes-wide little-endian lane of
// data by n bits.  Trailing bytes that do not fill a lane are truncated as
// a smaller lane.
func Bytes(data []byte, sizeBytes int, n uint) {
	if sizeBytes != 4 && sizeBytes != 8 {
		panic("approx: lane size must be 4 or 8 bytes")
	}
	for off := 0; off < len(data); off += sizeBytes {
		end := off + sizeBytes
		if end > len(data) {
			end = len(data)
		}
		lane := data[off:end]
		var raw uint64
		for i := len(lane) - 1; i >= 0; i-- {
			raw = raw<<8 | uint64(lane[i])
		}
		raw = Lane(raw, len(lane), n)
		for i := range lane {
			lane[i] = byte(raw >> (8 * uint(i)))
		}
	}
}

// RelativeStep reports the worst-case relative rounding error introduced
// by truncating n mantissa bits of a float32: 2^(n-23) of the value's
// magnitude: the bound the float property tests check Float32 against.
func RelativeStep(n uint) float64 {
	return math.Ldexp(1, int(n)-23)
}
