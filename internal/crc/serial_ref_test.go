package crc

// Serial is the bit-serial CRC unit of Fig. 3 (left): a linear-feedback
// shift register whose first stage input is the XOR of the input bit and
// the feedback bit.  It processes one bit of input per clock cycle, so a
// byte costs eight cycles; the n-bit-parallel Table unit exists precisely
// to avoid that latency (§3.1).  It is the tests' reference model: the
// simulator charges Table 4's rates whichever engine computes a digest.
type Serial struct {
	p     Params
	state uint64
}

// NewSerial returns a reset bit-serial CRC unit.
func NewSerial(p Params) *Serial {
	s := &Serial{p: p}
	s.Reset()
	return s
}

// Reset returns the register to the algorithm's initial value.
func (s *Serial) Reset() {
	s.state = s.p.Init & s.p.mask()
}

// FeedBit shifts a single input bit (the low bit of b) into the register.
// This is the fundamental per-cycle operation of the serial unit.
func (s *Serial) FeedBit(b byte) {
	// Reflected algorithm: the input bit enters at the low end.
	in := (s.state ^ uint64(b&1)) & 1
	s.state >>= 1
	if in != 0 {
		s.state ^= s.p.Poly
	}
	s.state &= s.p.mask()
}

// Feed shifts every bit of p into the register, least-significant bit of
// each byte first (reflected bit order).
func (s *Serial) Feed(p []byte) {
	for _, b := range p {
		for i := 0; i < 8; i++ {
			s.FeedBit(b >> i)
		}
	}
}

// Sum returns the current digest.
func (s *Serial) Sum() uint64 {
	return (s.state ^ s.p.XorOut) & s.p.mask()
}

// Params reports the unit's algorithm parameters.
func (s *Serial) Params() Params { return s.p }

var _ Hasher = (*Serial)(nil)
