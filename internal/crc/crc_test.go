package crc

import (
	"hash/crc32"
	"hash/crc64"
	"math/rand"
	"testing"
	"testing/quick"
)

// The catalogue check value is the digest of the ASCII string "123456789".
var check = []byte("123456789")

func TestCheckValues(t *testing.T) {
	cases := []struct {
		p    Params
		want uint64
	}{
		{CRC16, 0xBB3D},
		{CRC32, 0xCBF43926},
		{CRC64, 0x995DC9BBDF1939FA},
	}
	for _, c := range cases {
		t.Run(c.p.Name, func(t *testing.T) {
			if got := Checksum(c.p, check); got != c.want {
				t.Errorf("table %s(%q) = %#x, want %#x", c.p.Name, check, got, c.want)
			}
			s := NewSerial(c.p)
			s.Feed(check)
			if got := s.Sum(); got != c.want {
				t.Errorf("serial %s(%q) = %#x, want %#x", c.p.Name, check, got, c.want)
			}
		})
	}
}

func TestMatchesStdlibCRC32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		want := uint64(crc32.ChecksumIEEE(buf))
		if got := Checksum(CRC32, buf); got != want {
			t.Fatalf("CRC32(%x) = %#x, want stdlib %#x", buf, got, want)
		}
	}
}

func TestMatchesStdlibCRC64(t *testing.T) {
	tab := crc64.MakeTable(crc64.ECMA)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		want := crc64.Checksum(buf, tab)
		if got := Checksum(CRC64, buf); got != want {
			t.Fatalf("CRC64(%x) = %#x, want stdlib %#x", buf, got, want)
		}
	}
}

// Property: the serial (bit-at-a-time) and table (byte-parallel) hardware
// produce identical digests for every input stream — the two Fig. 3
// designs are functionally equivalent.
func TestSerialTableEquivalence(t *testing.T) {
	for _, p := range []Params{CRC16, CRC32, CRC64} {
		p := p
		f := func(data []byte) bool {
			s := NewSerial(p)
			s.Feed(data)
			return s.Sum() == Checksum(p, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: serial != table: %v", p.Name, err)
		}
	}
}

// Property: the serial, table, and slicing-by-8 engines produce identical
// digests for every random stream at every supported width — the software
// fast path computes exactly the function of the modeled hardware.
func TestSerialTableSlicingEquivalence(t *testing.T) {
	for _, p := range []Params{CRC16, CRC32, CRC64} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(p.Width)))
			for trial := 0; trial < 300; trial++ {
				buf := make([]byte, rng.Intn(67))
				rng.Read(buf)
				want := Checksum(p, buf)
				s := NewSerial(p)
				s.Feed(buf)
				if got := s.Sum(); got != want {
					t.Fatalf("serial %s(%x) = %#x, table %#x", p.Name, buf, got, want)
				}
				sl := NewSlicing8(p)
				sl.Feed(buf)
				if got := sl.Sum(); got != want {
					t.Fatalf("slicing8 %s(%x) = %#x, table %#x", p.Name, buf, got, want)
				}
			}
		})
	}
}

// Property: FeedWord (the lane-shaped entry point the memoization unit
// uses) agrees with byte-at-a-time feeding for 4- and 8-byte lanes, and
// State/SetState context switches preserve the digest.
func TestSlicingFeedWordAndState(t *testing.T) {
	for _, p := range []Params{CRC16, CRC32, CRC64} {
		rng := rand.New(rand.NewSource(int64(100 + p.Width)))
		for trial := 0; trial < 200; trial++ {
			lanes := 1 + rng.Intn(6)
			ref := NewTable(p)
			sl := NewSlicing8(p)
			for i := 0; i < lanes; i++ {
				w := rng.Uint64()
				n := 4
				if rng.Intn(2) == 1 {
					n = 8
				}
				for k := 0; k < n; k++ {
					ref.FeedByte(byte(w >> (8 * uint(k))))
				}
				// Round-trip the state, as the HVR file does when
				// computations for different LUTs interleave.
				save := sl.State()
				sl.SetState(save)
				sl.FeedWord(w, n)
			}
			if ref.Sum() != sl.Sum() {
				t.Fatalf("%s: FeedWord digest %#x != byte-fed %#x", p.Name, sl.Sum(), ref.Sum())
			}
		}
	}
}

// Property: feeding a stream in two chunks equals feeding it whole — the
// "accumulate" property the paper relies on to hide hash latency behind
// the ld_crc/reg_crc instruction stream.
func TestStreamingAccumulation(t *testing.T) {
	f := func(a, b []byte) bool {
		whole := NewTable(CRC32)
		whole.Feed(append(append([]byte{}, a...), b...))
		split := NewTable(CRC32)
		split.Feed(a)
		split.Feed(b)
		return whole.Sum() == split.Sum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every bit of the input affects the CRC output (paper §3.1,
// property 2 — unlike the sampling-based hash of ATM).  Flipping any
// single bit must change the digest.
func TestEveryBitMatters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		buf := make([]byte, 1+rng.Intn(40))
		rng.Read(buf)
		base := Checksum(CRC32, buf)
		for i := range buf {
			for bit := 0; bit < 8; bit++ {
				buf[i] ^= 1 << bit
				if Checksum(CRC32, buf) == base {
					t.Fatalf("flipping byte %d bit %d left CRC unchanged", i, bit)
				}
				buf[i] ^= 1 << bit
			}
		}
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	h := NewTable(CRC32)
	h.Feed([]byte("garbage"))
	h.Reset()
	h.Feed(check)
	if got := h.Sum(); got != 0xCBF43926 {
		t.Errorf("after Reset, CRC32(check) = %#x, want 0xCBF43926", got)
	}
}

func TestStateSaveRestore(t *testing.T) {
	// Interleaved hashing via State/SetState must equal sequential
	// hashing — this is the Hash Value Register context-switch model.
	a, b := []byte("stream-a-0123"), []byte("stream-b-4567")
	h := NewTable(CRC32)

	h.Reset()
	h.Feed(a[:6])
	ctxA := h.State()
	h.Reset()
	h.Feed(b[:6])
	ctxB := h.State()

	h.SetState(ctxA)
	h.Feed(a[6:])
	gotA := h.Sum()
	h.SetState(ctxB)
	h.Feed(b[6:])
	gotB := h.Sum()

	if want := Checksum(CRC32, a); gotA != want {
		t.Errorf("interleaved CRC(a) = %#x, want %#x", gotA, want)
	}
	if want := Checksum(CRC32, b); gotB != want {
		t.Errorf("interleaved CRC(b) = %#x, want %#x", gotB, want)
	}
}

func TestByWidth(t *testing.T) {
	for _, w := range []uint{16, 32, 64} {
		p, err := ByWidth(w)
		if err != nil {
			t.Fatalf("ByWidth(%d): %v", w, err)
		}
		if p.Width != w {
			t.Errorf("ByWidth(%d).Width = %d", w, p.Width)
		}
	}
	if _, err := ByWidth(24); err == nil {
		t.Error("ByWidth(24) succeeded, want error")
	}
}

// Collision smoke check: over many random distinct 24-byte inputs, the
// 32-bit CRC must exhibit a near-zero collision rate (the paper reports
// "virtually zero hashing collision rate" for its benchmarks).
func TestLowCollisionRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := make(map[uint64][]byte)
	const n = 200000
	collisions := 0
	buf := make([]byte, 24)
	for i := 0; i < n; i++ {
		rng.Read(buf)
		sum := Checksum(CRC32, buf)
		if prev, ok := seen[sum]; ok && string(prev) != string(buf) {
			collisions++
		} else {
			seen[sum] = append([]byte{}, buf...)
		}
	}
	// Birthday bound for 200k draws over 2^32 is ~4.6 expected
	// collisions; allow generous slack while still catching a broken
	// hash (which would collide orders of magnitude more).
	if collisions > 40 {
		t.Errorf("CRC32 collisions = %d over %d inputs, want < 40", collisions, n)
	}
}

func BenchmarkTableCRC32(b *testing.B) {
	h := NewTable(CRC32)
	buf := make([]byte, 36)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.Feed(buf)
		_ = h.Sum()
	}
}

func BenchmarkSerialCRC32(b *testing.B) {
	h := NewSerial(CRC32)
	buf := make([]byte, 36)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.Feed(buf)
		_ = h.Sum()
	}
}

func BenchmarkSlicing8CRC32(b *testing.B) {
	h := NewSlicing8(CRC32)
	buf := make([]byte, 36)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.Feed(buf)
		_ = h.Sum()
	}
}
