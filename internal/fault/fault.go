// Package fault injects configurable hardware faults into the AxMemo
// model: bit flips in LUT entries and hash value registers, stuck-at LUT
// entries, dropped UPDATE writes, and tag corruption in the data caches.
// The motivation is the approximate-storage literature (a LUT carved out
// of the last-level cache is approximate memory; its error rate must be
// injected and measured, not assumed away) and runtime quality management
// à la AXES: the quality guard in internal/memo is exercised against the
// faults injected here.
//
// All injection is seeded and deterministic: the same Plan and the same
// (single-threaded) simulation produce the same fault pattern, so fault
// sweeps are reproducible experiments rather than noise.
package fault

import (
	"fmt"
	"math/rand"
)

// Plan describes what faults to inject and at which rates.  The zero
// value injects nothing.
type Plan struct {
	// Seed makes the injected pattern deterministic.  Two injectors
	// built from the same plan and salt draw identical streams.
	Seed int64

	// LUTBitFlipRate is the probability, per data bit per LUT read,
	// that the stored bit has flipped since it was written.  Flips are
	// persistent: the corrupted value is written back to the entry,
	// modeling retention errors in approximate storage.
	LUTBitFlipRate float64

	// HVRBitFlipRate is the probability, per bit per hash feed, that an
	// input lane bit flips on its way into the CRC unit.  These faults
	// corrupt the hash, so they surface as spurious misses (and, rarely,
	// aliased hits), degrading hit rate rather than output quality.
	HVRBitFlipRate float64

	// DropUpdateRate is the probability that an UPDATE's LUT write is
	// silently lost (the pending entry is consumed but nothing is
	// stored).
	DropUpdateRate float64

	// StuckEntryRate is the probability that a newly written LUT entry
	// becomes stuck: its data can never be overwritten and it survives
	// INVALIDATE, modeling a faulty storage cell.
	StuckEntryRate float64

	// CacheTagFlipRate is the probability, per cache access, that a
	// random tag in the accessed set is corrupted, turning a future
	// access to that line into a miss.  This perturbs timing and energy,
	// not output values.
	CacheTagFlipRate float64
}

// Enabled reports whether the plan injects any faults at all.
func (p Plan) Enabled() bool {
	return p.LUTBitFlipRate > 0 || p.HVRBitFlipRate > 0 || p.DropUpdateRate > 0 ||
		p.StuckEntryRate > 0 || p.CacheTagFlipRate > 0
}

// Validate checks that every rate is a probability.
func (p Plan) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("fault: %s = %v outside [0, 1]", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LUTBitFlipRate", p.LUTBitFlipRate},
		{"HVRBitFlipRate", p.HVRBitFlipRate},
		{"DropUpdateRate", p.DropUpdateRate},
		{"StuckEntryRate", p.StuckEntryRate},
		{"CacheTagFlipRate", p.CacheTagFlipRate},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// Injector stream salts, one per consumer, so the components sharing a
// plan draw independent random streams and adding a consumer does not
// perturb the others.
const (
	SaltMemoUnit int64 = 1
	SaltL1D      int64 = 2
	SaltL2Cache  int64 = 3
)

// Stats counts the faults an injector actually delivered.
type Stats struct {
	LUTBitFlips    uint64
	HVRBitFlips    uint64
	DroppedUpdates uint64
	StuckEntries   uint64
	CacheTagFlips  uint64
}

// Total returns the total number of injected fault events.
func (s Stats) Total() uint64 {
	return s.LUTBitFlips + s.HVRBitFlips + s.DroppedUpdates + s.StuckEntries + s.CacheTagFlips
}

// Injector draws faults from a plan with a private deterministic stream.
// It is not safe for concurrent use; the simulator is single-threaded.
type Injector struct {
	plan  Plan
	rng   *rand.Rand
	stats Stats
}

// NewInjector builds an injector for the plan.  salt separates the
// random streams of different components sharing one plan (e.g. the
// memoization unit and each cache level), so adding a consumer does not
// perturb the others' draws.
func NewInjector(p Plan, salt int64) *Injector {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio multiplier, as int64
	return &Injector{plan: p, rng: rand.New(rand.NewSource(p.Seed ^ salt*mix))}
}

// Stats returns the faults delivered so far.
func (i *Injector) Stats() Stats { return i.stats }

// flip applies independent per-bit flips at the given rate to the low
// `bits` bits of word, returning the corrupted word and the flip count.
func (i *Injector) flip(word uint64, bits int, rate float64) (uint64, int) {
	if rate <= 0 || bits <= 0 {
		return word, 0
	}
	n := 0
	for b := 0; b < bits && b < 64; b++ {
		if i.rng.Float64() < rate {
			word ^= 1 << uint(b)
			n++
		}
	}
	return word, n
}

// CorruptLUTRead applies per-bit flips to a LUT data word on read.
func (i *Injector) CorruptLUTRead(data uint64, dataBits int) uint64 {
	out, n := i.flip(data, dataBits, i.plan.LUTBitFlipRate)
	i.stats.LUTBitFlips += uint64(n)
	return out
}

// CorruptHVRFeed applies per-bit flips to an input lane on its way into
// the hash unit.
func (i *Injector) CorruptHVRFeed(lane uint64, laneBits int) uint64 {
	out, n := i.flip(lane, laneBits, i.plan.HVRBitFlipRate)
	i.stats.HVRBitFlips += uint64(n)
	return out
}

// DropUpdate reports whether this UPDATE's LUT write is lost.
func (i *Injector) DropUpdate() bool {
	if i.plan.DropUpdateRate <= 0 {
		return false
	}
	if i.rng.Float64() < i.plan.DropUpdateRate {
		i.stats.DroppedUpdates++
		return true
	}
	return false
}

// StickEntry reports whether a freshly written LUT entry becomes stuck.
func (i *Injector) StickEntry() bool {
	if i.plan.StuckEntryRate <= 0 {
		return false
	}
	if i.rng.Float64() < i.plan.StuckEntryRate {
		i.stats.StuckEntries++
		return true
	}
	return false
}

// FlipCacheTag reports whether this cache access corrupts a tag in its
// set, and which way (in [0, ways)) is hit.
func (i *Injector) FlipCacheTag(ways int) (way int, flip bool) {
	if i.plan.CacheTagFlipRate <= 0 || ways <= 0 {
		return 0, false
	}
	if i.rng.Float64() < i.plan.CacheTagFlipRate {
		i.stats.CacheTagFlips++
		return i.rng.Intn(ways), true
	}
	return 0, false
}
