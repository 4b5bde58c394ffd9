package crc

import "encoding/binary"

// Hasher is a streaming CRC unit.  It mirrors the accumulate-as-you-go
// property the paper highlights: the unit "does not need to have all the
// input data to start hashing", which lets the hardware hide hash latency
// behind the feeding ld_crc/reg_crc instructions.  The reference units
// and the production Slicing8 engine all satisfy it.
type Hasher interface {
	// Reset returns the unit to its initial state.
	Reset()
	// Feed accumulates the bytes of p into the running hash, in order.
	Feed(p []byte)
	// Sum returns the current digest without disturbing the state.
	Sum() uint64
	// Params reports the algorithm parameters of the unit.
	Params() Params
}

// Checksum hashes data in one shot with the Table reference unit.
func Checksum(p Params, data []byte) uint64 {
	h := NewTable(p)
	h.Feed(data)
	return h.Sum()
}

// Table is the n-bit-parallel CRC unit of Fig. 3 (right) with n = 8: it
// consumes one byte of input per clock cycle using a 256-entry constant
// RAM (the paper's "2^n x m-bit RAM").  The evaluation's hardware unit is
// this design, unrolled four times and pipelined so that the common 4-byte
// input is absorbed at one byte per cycle with full throughput (§6.1).
// It is the tests' reference model for the Slicing8 engine.
type Table struct {
	p     Params
	tab   [256]uint64
	state uint64
}

// NewTable returns a reset byte-parallel CRC unit, building its constant
// RAM from the generator polynomial.
func NewTable(p Params) *Table {
	t := &Table{p: p}
	for i := 0; i < 256; i++ {
		c := uint64(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = (c >> 1) ^ p.Poly
			} else {
				c >>= 1
			}
		}
		t.tab[i] = c & p.mask()
	}
	t.Reset()
	return t
}

// Reset returns the register to the algorithm's initial value.
func (t *Table) Reset() {
	t.state = t.p.Init & t.p.mask()
}

// FeedByte absorbs one byte — the unit's per-cycle operation.
func (t *Table) FeedByte(b byte) {
	t.state = t.tab[byte(t.state)^b] ^ (t.state >> 8)
	t.state &= t.p.mask()
}

// Feed absorbs every byte of p in order.
func (t *Table) Feed(p []byte) {
	for _, b := range p {
		t.FeedByte(b)
	}
}

// Sum returns the current digest.
func (t *Table) Sum() uint64 {
	return (t.state ^ t.p.XorOut) & t.p.mask()
}

// Params reports the unit's algorithm parameters.
func (t *Table) Params() Params { return t.p }

// State exposes the raw (pre-XorOut) register value.  The Hash Value
// Registers of the memoization unit snapshot and restore this state when
// CRC computations for different LUTs interleave (§3.2).
func (t *Table) State() uint64 { return t.state }

// SetState restores a raw register value previously read with State.
func (t *Table) SetState(s uint64) { t.state = s & t.p.mask() }

// Feed absorbs every byte of p in order, eight at a time where possible.
// Production feeds Slicing8 lane by lane (FeedWord); tests feed whole
// streams through this method to compare it with the reference units.
func (s *Slicing8) Feed(p []byte) {
	for len(p) >= 8 {
		s.feed8(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	for _, b := range p {
		s.FeedByte(b)
	}
}

var (
	_ Hasher = (*Table)(nil)
	_ Hasher = (*Slicing8)(nil)
)
