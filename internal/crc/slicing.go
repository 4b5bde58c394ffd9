package crc

// Slicing8 is a software-optimized CRC engine that absorbs eight input
// bytes per step using the slicing-by-8 technique (eight 256-entry
// tables).  It computes exactly the same function as the Fig. 3 units,
// which the tests keep as reference models, but it is not a hardware
// model: the simulator's cycle cost model keeps charging the paper's
// per-byte absorption rate (Table 4) regardless of which functional
// engine computes the digest.  Both memoization units hash with it, so
// large sweeps spend their time in the timing model, not in
// byte-at-a-time hashing.
type Slicing8 struct {
	p     Params
	tab   [8][256]uint64
	state uint64
}

// NewSlicing8 returns a reset slicing-by-8 CRC engine for p.
func NewSlicing8(p Params) *Slicing8 {
	s := &Slicing8{p: p}
	// tab[0] is the plain byte-at-a-time table; tab[k] applies the
	// byte recurrence k additional times, so that eight table reads
	// absorb eight bytes at once.
	for i := 0; i < 256; i++ {
		c := uint64(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = (c >> 1) ^ p.Poly
			} else {
				c >>= 1
			}
		}
		s.tab[0][i] = c & p.mask()
	}
	for k := 1; k < 8; k++ {
		for i := 0; i < 256; i++ {
			prev := s.tab[k-1][i]
			s.tab[k][i] = s.tab[0][prev&0xff] ^ (prev >> 8)
		}
	}
	s.Reset()
	return s
}

// Reset returns the register to the algorithm's initial value.
func (s *Slicing8) Reset() {
	s.state = s.p.Init & s.p.mask()
}

// FeedByte absorbs one byte with the ordinary byte recurrence.
func (s *Slicing8) FeedByte(b byte) {
	s.state = s.tab[0][byte(s.state)^b] ^ (s.state >> 8)
}

// feed8 absorbs eight little-endian bytes packed in w in one step.
// Because any width-n state occupies the low n bits of the register and
// the byte recurrence shifts right, the eight-table formulation of the
// 64-bit algorithm is correct for every supported width.
func (s *Slicing8) feed8(w uint64) {
	t := s.state ^ w
	s.state = s.tab[7][t&0xff] ^
		s.tab[6][(t>>8)&0xff] ^
		s.tab[5][(t>>16)&0xff] ^
		s.tab[4][(t>>24)&0xff] ^
		s.tab[3][(t>>32)&0xff] ^
		s.tab[2][(t>>40)&0xff] ^
		s.tab[1][(t>>48)&0xff] ^
		s.tab[0][t>>56]
}

// FeedWord absorbs the low n little-endian bytes of w (1 ≤ n ≤ 8) — the
// shape of a register or memory lane entering the hash unit.
func (s *Slicing8) FeedWord(w uint64, n int) {
	if n == 8 {
		s.feed8(w)
		return
	}
	for i := 0; i < n; i++ {
		s.FeedByte(byte(w >> (8 * uint(i))))
	}
}

// Sum returns the current digest.
func (s *Slicing8) Sum() uint64 {
	return (s.state ^ s.p.XorOut) & s.p.mask()
}

// Params reports the engine's algorithm parameters.
func (s *Slicing8) Params() Params { return s.p }

// State exposes the raw (pre-XorOut) register value, for Hash Value
// Register context switches (§3.2).
func (s *Slicing8) State() uint64 { return s.state }

// SetState restores a raw register value previously read with State.
func (s *Slicing8) SetState(v uint64) { s.state = v & s.p.mask() }
