package memo

import (
	"math"
	"testing"
	"unsafe"

	"axmemo/internal/crc"
)

func noMonitorCfg() Config {
	cfg := DefaultConfig()
	cfg.Monitor.Enabled = false
	return cfg
}

func feed32(u *Unit, lut uint8, vals ...uint32) {
	for _, v := range vals {
		u.feedT(lut, 0, uint64(v), 4, 0, 0)
	}
}

func TestLUTGeometry(t *testing.T) {
	c4 := LUTConfig{SizeBytes: 8 << 10, DataBytes: 4, HitLatency: 2}
	if c4.Ways() != 8 || c4.Sets() != 128 || c4.Entries() != 1024 {
		t.Errorf("4B geometry: ways=%d sets=%d entries=%d", c4.Ways(), c4.Sets(), c4.Entries())
	}
	c8 := LUTConfig{SizeBytes: 8 << 10, DataBytes: 8, HitLatency: 2}
	if c8.Ways() != 4 || c8.Sets() != 128 || c8.Entries() != 512 {
		t.Errorf("8B geometry: ways=%d sets=%d entries=%d", c8.Ways(), c8.Sets(), c8.Entries())
	}
}

func TestLUTConfigValidate(t *testing.T) {
	bad := []LUTConfig{
		{SizeBytes: 8 << 10, DataBytes: 5, HitLatency: 2},
		{SizeBytes: 100, DataBytes: 4, HitLatency: 2},
		{SizeBytes: 64 * 3, DataBytes: 4, HitLatency: 2},
		{SizeBytes: 8 << 10, DataBytes: 4, HitLatency: 0},
		{SizeBytes: 2 * MaxLUTBytes, DataBytes: 4, HitLatency: 2},
		{SizeBytes: 1 << 54, DataBytes: 4, HitLatency: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	for _, size := range []int{4 << 10, MaxLUTBytes} {
		if err := (LUTConfig{SizeBytes: size, DataBytes: 4, HitLatency: 2}).Validate(); err != nil {
			t.Errorf("good %d-byte config rejected: %v", size, err)
		}
	}
}

func TestMissThenUpdateThenHit(t *testing.T) {
	u := mustNewT(noMonitorCfg())
	feed32(u, 0, 0xDEADBEEF, 0x12345678)
	r := u.lookupT(0, 0, 100)
	if r.Hit {
		t.Fatal("cold lookup hit")
	}
	u.updateT(0, 0, 0x42, 200)

	feed32(u, 0, 0xDEADBEEF, 0x12345678)
	r = u.lookupT(0, 0, 300)
	if !r.Hit || r.Data != 0x42 || r.Level != 1 {
		t.Fatalf("lookup after update = %+v, want L1 hit with 0x42", r)
	}
}

func TestDifferentInputsMiss(t *testing.T) {
	u := mustNewT(noMonitorCfg())
	feed32(u, 0, 1, 2, 3)
	u.lookupT(0, 0, 0)
	u.updateT(0, 0, 7, 0)
	feed32(u, 0, 1, 2, 4)
	if r := u.lookupT(0, 0, 0); r.Hit {
		t.Error("different inputs produced a hit")
	}
}

func TestLogicalLUTsAreDistinct(t *testing.T) {
	u := mustNewT(noMonitorCfg())
	feed32(u, 0, 0xAAAA)
	u.lookupT(0, 0, 0)
	u.updateT(0, 0, 1, 0)
	// Same input bytes into LUT 1 must not hit LUT 0's entry.
	feed32(u, 1, 0xAAAA)
	if r := u.lookupT(1, 0, 0); r.Hit {
		t.Error("LUT 1 hit an entry tagged for LUT 0")
	}
}

func TestThreadsHaveSeparateHVRContexts(t *testing.T) {
	cfg := noMonitorCfg()
	cfg.Threads = 2
	u := mustNewT(cfg)
	// Interleave feeds from two threads into the same logical LUT.
	u.feedT(0, 0, 0x11, 4, 0, 0)
	u.feedT(0, 1, 0x22, 4, 0, 0)
	u.feedT(0, 0, 0x33, 4, 0, 0)
	u.feedT(0, 1, 0x44, 4, 0, 0)
	u.lookupT(0, 0, 0)
	u.updateT(0, 0, 100, 0)
	u.lookupT(0, 1, 0)
	u.updateT(0, 1, 200, 0)

	// Re-feed thread 0's stream uninterleaved: must hit its entry.
	u.feedT(0, 0, 0x11, 4, 0, 0)
	u.feedT(0, 0, 0x33, 4, 0, 0)
	if r := u.lookupT(0, 0, 0); !r.Hit || r.Data != 100 {
		t.Errorf("thread 0 replay = %+v, want hit 100", r)
	}
	u.feedT(0, 1, 0x22, 4, 0, 0)
	u.feedT(0, 1, 0x44, 4, 0, 0)
	if r := u.lookupT(0, 1, 0); !r.Hit || r.Data != 200 {
		t.Errorf("thread 1 replay = %+v, want hit 200", r)
	}
}

func TestTruncationMakesSimilarInputsHit(t *testing.T) {
	u := mustNewT(noMonitorCfg())
	a := math.Float32bits(1.2345)
	b := a ^ 0x7 // perturb low mantissa bits
	u.feedT(0, 0, uint64(a), 4, 8, 0)
	u.lookupT(0, 0, 0)
	u.updateT(0, 0, 55, 0)
	u.feedT(0, 0, uint64(b), 4, 8, 0)
	if r := u.lookupT(0, 0, 0); !r.Hit || r.Data != 55 {
		t.Errorf("truncated similar input = %+v, want hit", r)
	}
	// Without truncation the perturbed input must miss.
	u2 := mustNewT(noMonitorCfg())
	u2.feedT(0, 0, uint64(a), 4, 0, 0)
	u2.lookupT(0, 0, 0)
	u2.updateT(0, 0, 55, 0)
	u2.feedT(0, 0, uint64(b), 4, 0, 0)
	if r := u2.lookupT(0, 0, 0); r.Hit {
		t.Error("un-truncated perturbed input hit")
	}
}

func TestLookupWaitsForInputQueue(t *testing.T) {
	// Byte-serial unit (Table 4's one-cycle-per-byte accounting).
	cfg := noMonitorCfg()
	cfg.CRCBytesPerCycle = 1
	u := mustNewT(cfg)
	// Feed 24 bytes at cycle 0: queue drains at cycle 24.
	for i := 0; i < 6; i++ {
		u.feedT(0, 0, uint64(i), 4, 0, 0)
	}
	r := u.lookupT(0, 0, 10) // lookup issued while queue still draining
	want := uint64(24 + 2)   // drain + L1 LUT latency
	if r.DoneAt != want {
		t.Errorf("DoneAt = %d, want %d (stall until CRC ready)", r.DoneAt, want)
	}
	// A lookup issued after the drain completes pays only the LUT
	// latency.
	for i := 0; i < 6; i++ {
		u.feedT(0, 0, uint64(i), 4, 0, 100)
	}
	r = u.lookupT(0, 0, 200)
	if r.DoneAt != 202 {
		t.Errorf("DoneAt = %d, want 202", r.DoneAt)
	}
}

func TestUnrolledUnitAbsorbsWordPerCycle(t *testing.T) {
	// The evaluated configuration (4x unrolled, pipelined, §6.1)
	// drains a 4-byte word per cycle.
	u := mustNewT(noMonitorCfg())
	for i := 0; i < 6; i++ {
		u.feedT(0, 0, uint64(i), 4, 0, 0)
	}
	r := u.lookupT(0, 0, 0)
	if want := uint64(6 + 2); r.DoneAt != want {
		t.Errorf("DoneAt = %d, want %d", r.DoneAt, want)
	}
}

func TestFeedOverlapsWithExecution(t *testing.T) {
	cfg := noMonitorCfg()
	cfg.CRCBytesPerCycle = 1
	u := mustNewT(cfg)
	// Two feeds spaced apart: the queue position accumulates from the
	// later of (previous drain, feed time).
	r1 := u.feedT(0, 0, 1, 4, 0, 0)
	if r1 != 4 {
		t.Errorf("first feed drains at %d, want 4", r1)
	}
	r2 := u.feedT(0, 0, 2, 4, 0, 100)
	if r2 != 104 {
		t.Errorf("second feed drains at %d, want 104", r2)
	}
}

func TestL2LUTRaisesTotalHitRate(t *testing.T) {
	// Working set bigger than L1 but within L2: with an L2 LUT the
	// second pass hits; without it, it mostly misses.
	run := func(withL2 bool) Stats {
		cfg := noMonitorCfg()
		cfg.L1 = LUTConfig{SizeBytes: 1 << 10, DataBytes: 4, HitLatency: 2} // 128 entries
		if withL2 {
			cfg.L2 = &LUTConfig{SizeBytes: 64 << 10, DataBytes: 4, HitLatency: 13}
		}
		u := mustNewT(cfg)
		const n = 1000 // > 128 L1 entries, < 8192 L2 entries
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < n; i++ {
				feed32(u, 0, uint32(i), uint32(i*3))
				r := u.lookupT(0, 0, 0)
				if !r.Hit {
					u.updateT(0, 0, uint64(i), 0)
				}
			}
		}
		return u.Stats()
	}
	without := run(false)
	with := run(true)
	if with.HitRate() <= without.HitRate() {
		t.Errorf("L2 LUT did not raise hit rate: with=%.3f without=%.3f",
			with.HitRate(), without.HitRate())
	}
	if with.L2Hits == 0 {
		t.Error("no L2 LUT hits recorded")
	}
}

func TestL2HitPromotesToL1(t *testing.T) {
	cfg := noMonitorCfg()
	cfg.L1 = LUTConfig{SizeBytes: 64, DataBytes: 4, HitLatency: 2} // 1 set × 8 ways
	cfg.L2 = &LUTConfig{SizeBytes: 4 << 10, DataBytes: 4, HitLatency: 13}
	u := mustNewT(cfg)
	// Fill beyond L1 capacity so early entries spill to L2.
	for i := 0; i < 20; i++ {
		feed32(u, 0, uint32(i))
		if r := u.lookupT(0, 0, 0); !r.Hit {
			u.updateT(0, 0, uint64(i), 0)
		}
	}
	// Entry 0 must now hit via L2...
	feed32(u, 0, 0)
	r := u.lookupT(0, 0, 0)
	if !r.Hit || r.Level != 2 {
		t.Fatalf("expected L2 hit for spilled entry, got %+v", r)
	}
	// ...and be promoted so the next access is an L1 hit.
	feed32(u, 0, 0)
	r = u.lookupT(0, 0, 0)
	if !r.Hit || r.Level != 1 {
		t.Errorf("expected L1 hit after promotion, got %+v", r)
	}
}

func TestInvalidateClearsLUT(t *testing.T) {
	u := mustNewT(noMonitorCfg())
	feed32(u, 3, 0xABCD)
	u.lookupT(3, 0, 0)
	u.updateT(3, 0, 9, 0)
	feed32(u, 2, 0xABCD)
	u.lookupT(2, 0, 0)
	u.updateT(2, 0, 8, 0)

	cost := u.invalidateT(3)
	if cost != 8 { // 8 ways, no L2
		t.Errorf("invalidate cost = %d, want 8", cost)
	}
	feed32(u, 3, 0xABCD)
	if r := u.lookupT(3, 0, 0); r.Hit {
		t.Error("LUT 3 hit after invalidate")
	}
	// LUT 2 must be untouched.
	feed32(u, 2, 0xABCD)
	if r := u.lookupT(2, 0, 0); !r.Hit || r.Data != 8 {
		t.Errorf("LUT 2 lost its entry: %+v", r)
	}
}

func TestUpdateLatency(t *testing.T) {
	u := mustNewT(noMonitorCfg())
	feed32(u, 0, 1)
	u.lookupT(0, 0, 0)
	if done := u.updateT(0, 0, 1, 500); done != 502 {
		t.Errorf("update done at %d, want 502", done)
	}
}

func TestStrayUpdateCounted(t *testing.T) {
	u := mustNewT(noMonitorCfg())
	u.updateT(0, 0, 1, 0) // no lookup miss pending
	if u.Stats().StrayOps != 1 {
		t.Errorf("StrayOps = %d, want 1", u.Stats().StrayOps)
	}
	if u.Stats().Updates != 0 {
		t.Error("stray update counted as real update")
	}
}

func TestCollisionTracking(t *testing.T) {
	cfg := noMonitorCfg()
	cfg.TrackCollisions = true
	// A 16-bit CRC over many distinct inputs must collide.
	cfg.CRC = crc.CRC16
	cfg.L2 = &LUTConfig{SizeBytes: 512 << 10, DataBytes: 4, HitLatency: 13}
	u := mustNewT(cfg)
	hits := 0
	for i := 0; i < 200000; i++ {
		feed32(u, 0, uint32(i), uint32(i)^0x9E3779B9)
		r := u.lookupT(0, 0, 0)
		if r.Hit {
			hits++
		} else {
			u.updateT(0, 0, uint64(i), 0)
		}
	}
	if hits == 0 {
		t.Skip("no aliased hits produced; collision path unexercised")
	}
	if u.Stats().Collisions == 0 {
		t.Error("16-bit CRC produced hits on distinct inputs but no collision was recorded")
	}
}

func TestCRC32CollisionFreeOnModestSet(t *testing.T) {
	cfg := noMonitorCfg()
	cfg.TrackCollisions = true
	cfg.L2 = &LUTConfig{SizeBytes: 512 << 10, DataBytes: 4, HitLatency: 13}
	u := mustNewT(cfg)
	for i := 0; i < 50000; i++ {
		feed32(u, 0, uint32(i), uint32(i*7))
		if r := u.lookupT(0, 0, 0); !r.Hit {
			u.updateT(0, 0, uint64(i), 0)
		}
	}
	if c := u.Stats().Collisions; c != 0 {
		t.Errorf("CRC32 collisions = %d on 50k distinct inputs, want 0", c)
	}
}

func TestQualityMonitorSamplesHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Monitor = MonitorConfig{Enabled: true, SamplePeriod: 10, WindowSize: 100, ErrThreshold: 0.1, BadFraction: 0.1}
	u := mustNewT(cfg)
	u.setOutputKindT(0, OutF32)

	feed32(u, 0, 0x1111)
	u.lookupT(0, 0, 0)
	u.updateT(0, 0, uint64(math.Float32bits(2.0)), 0)

	sampled := 0
	for i := 0; i < 100; i++ {
		feed32(u, 0, 0x1111)
		r := u.lookupT(0, 0, 0)
		if r.Sampled {
			sampled++
			if r.Hit {
				t.Fatal("sampled lookup reported hit")
			}
			// Program recomputes (same value) and updates.
			u.updateT(0, 0, uint64(math.Float32bits(2.0)), 0)
		}
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 100 hits, want 10 (period 10)", sampled)
	}
	ms := u.MonitorStats()
	if ms.Samples != 10 || ms.MaxError != 0 || ms.Disabled {
		t.Errorf("monitor stats = %+v", ms)
	}
}

func TestQualityMonitorDisablesOnBadErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Monitor = MonitorConfig{Enabled: true, SamplePeriod: 2, WindowSize: 10, ErrThreshold: 0.1, BadFraction: 0.1}
	u := mustNewT(cfg)
	u.setOutputKindT(0, OutF32)

	feed32(u, 0, 0x2222)
	u.lookupT(0, 0, 0)
	u.updateT(0, 0, uint64(math.Float32bits(1.0)), 0) // memoized value 1.0

	for i := 0; i < 100 && !u.Disabled(); i++ {
		feed32(u, 0, 0x2222)
		r := u.lookupT(0, 0, 0)
		if r.Sampled {
			// Freshly computed value differs wildly every time —
			// far beyond the 10% threshold regardless of what the
			// update wrote into the entry last time.
			u.updateT(0, 0, uint64(math.Float32bits(float32(2+i))), 0)
		}
	}
	if !u.Disabled() {
		t.Fatal("quality monitor never disabled memoization despite 50% errors")
	}
	// Once disabled, lookups must miss.
	feed32(u, 0, 0x2222)
	if r := u.lookupT(0, 0, 0); r.Hit {
		t.Error("lookup hit while memoization disabled")
	}
}

func TestRelativeErrorKinds(t *testing.T) {
	f32 := func(v float32) uint64 { return uint64(math.Float32bits(v)) }
	if got := relativeError(f32(1.1), f32(1.0), OutF32); math.Abs(got-0.1) > 1e-6 {
		t.Errorf("OutF32 rel err = %v, want 0.1", got)
	}
	two := f32(2.0) | f32(4.0)<<32
	twoOff := f32(2.0) | f32(5.0)<<32
	if got := relativeError(twoOff, two, OutTwoF32); math.Abs(got-0.25) > 1e-6 {
		t.Errorf("OutTwoF32 rel err = %v, want 0.25", got)
	}
	if got := relativeError(90, 100, OutI32); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("OutI32 rel err = %v, want 0.1", got)
	}
	if got := relativeError(math.Float64bits(3.0), math.Float64bits(3.0), OutF64); got != 0 {
		t.Errorf("OutF64 equal rel err = %v, want 0", got)
	}
	if got := relativeError(0, 0, OutF32); got != 0 {
		t.Errorf("zero/zero rel err = %v, want 0", got)
	}
	if got := relativeError(f32(1), 0, OutF32); got != 1 {
		t.Errorf("nonzero/zero rel err = %v, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 0
	if _, err := New(cfg); err == nil {
		t.Error("0 threads accepted")
	}
	cfg = DefaultConfig()
	cfg.L2 = &LUTConfig{SizeBytes: 256 << 10, DataBytes: 8, HitLatency: 13}
	if _, err := New(cfg); err == nil {
		t.Error("mismatched L1/L2 data widths accepted")
	}
	cfg = DefaultConfig()
	cfg.UpdateLatency = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero update latency accepted")
	}
}

func TestTable5Constants(t *testing.T) {
	// Table 5 latencies are all below 0.5 ns, the paper's argument for
	// keeping the 2 GHz baseline clock.
	for _, c := range []UnitCosts{CostCRC32Unit, CostHashReg, CostLUT4KB, CostLUT8KB, CostLUT16KB} {
		if c.LatencyNS >= 0.5 {
			t.Errorf("unit latency %.4f ns ≥ 0.5 ns", c.LatencyNS)
		}
	}
	// Area overhead with the largest (16 KB) L1 LUT on two cores is the
	// paper's 2.08%.
	got := AreaOverhead(16<<10, 2)
	if math.Abs(got-0.0208) > 0.0005 {
		t.Errorf("area overhead = %.4f, want ≈ 0.0208", got)
	}
}

func TestLUTCostSelection(t *testing.T) {
	if LUTCost(4<<10) != CostLUT4KB || LUTCost(8<<10) != CostLUT8KB || LUTCost(16<<10) != CostLUT16KB {
		t.Error("LUTCost selects wrong Table 5 row")
	}
}

func TestEightByteData(t *testing.T) {
	cfg := noMonitorCfg()
	cfg.L1.DataBytes = 8
	u := mustNewT(cfg)
	feed32(u, 0, 0xCAFE)
	u.lookupT(0, 0, 0)
	packed := uint64(math.Float32bits(1.5)) | uint64(math.Float32bits(-2.5))<<32
	u.updateT(0, 0, packed, 0)
	feed32(u, 0, 0xCAFE)
	r := u.lookupT(0, 0, 0)
	if !r.Hit || r.Data != packed {
		t.Errorf("8-byte data round trip failed: %+v", r)
	}
}

func TestHitRateStat(t *testing.T) {
	s := Stats{Lookups: 10, L1Hits: 4, L2Hits: 2, SampledHits: 1, Misses: 3}
	if got := s.HitRate(); got != 0.7 {
		t.Errorf("HitRate = %v, want 0.7", got)
	}
	if got := s.L1HitRate(); got != 0.4 {
		t.Errorf("L1HitRate = %v, want 0.4", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate != 0")
	}
}

func TestLRUWithinLUTSet(t *testing.T) {
	l := newLUT(LUTConfig{SizeBytes: 64, DataBytes: 4, HitLatency: 2}) // 1 set × 8 ways
	for i := uint64(0); i < 8; i++ {
		l.insert(0, i, i*10)
	}
	l.lookup(0, 0) // refresh entry 0
	if _, ev := l.insert(0, 100, 1); !ev {
		t.Fatal("insert into full set did not evict")
	}
	if _, hit := l.lookup(0, 0); !hit {
		t.Error("recently used entry evicted")
	}
	if _, hit := l.lookup(0, 1); hit {
		t.Error("LRU entry survived")
	}
}

// TestLUTSetsIsolated checks that sets sharing one storage chunk stay
// apart: filling one set past its ways evicts only within that set, and
// an entry is 32 bytes.
func TestLUTSetsIsolated(t *testing.T) {
	l := newLUT(LUTConfig{SizeBytes: 128, DataBytes: 4, HitLatency: 2}) // 2 sets × 8 ways
	for i := uint64(0); i < 8; i++ {
		l.insert(0, 2*i+1, i) // set 1
	}
	for i := uint64(0); i < 9; i++ {
		l.insert(0, 2*i, i) // set 0, one more than it holds
	}
	for i := uint64(0); i < 8; i++ {
		if d, hit := l.lookup(0, 2*i+1); !hit || d != i {
			t.Fatalf("set 1 entry %d lost to set 0's eviction: data=%d hit=%v", i, d, hit)
		}
	}
	if _, hit := l.lookup(0, 0); hit {
		t.Error("set 0's LRU entry survived a ninth insert")
	}
	if got := l.occupancy(); got != 1 {
		t.Errorf("occupancy = %v, want 1", got)
	}
	if size := unsafe.Sizeof(lutEntry{}); size != 32 {
		t.Errorf("lutEntry is %d bytes, want 32", size)
	}
}

func TestInsertOverwritesSameTag(t *testing.T) {
	l := newLUT(LUTConfig{SizeBytes: 64, DataBytes: 4, HitLatency: 2})
	l.insert(0, 42, 1)
	if _, ev := l.insert(0, 42, 2); ev {
		t.Error("re-insert of same tag evicted")
	}
	if d, hit := l.lookup(0, 42); !hit || d != 2 {
		t.Errorf("overwrite lost: data=%d hit=%v", d, hit)
	}
}

func BenchmarkUnitLookupHit(b *testing.B) {
	u := mustNewT(noMonitorCfg())
	feed32(u, 0, 7, 8)
	u.lookupT(0, 0, 0)
	u.updateT(0, 0, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed32(u, 0, 7, 8)
		u.lookupT(0, 0, 0)
	}
}
