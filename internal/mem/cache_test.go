package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "T", SizeBytes: 1024, LineBytes: 64, Ways: 4, HitLatency: 1}
}

func mustNew(tb testing.TB, cfg Config) *Cache {
	tb.Helper()
	c, err := New(cfg)
	if err != nil {
		tb.Fatalf("New(%q): %v", cfg.Name, err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := small()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "line0", SizeBytes: 1024, LineBytes: 0, Ways: 4},
		{Name: "lineNP2", SizeBytes: 1024, LineBytes: 48, Ways: 4},
		{Name: "ways0", SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{Name: "odd", SizeBytes: 1000, LineBytes: 64, Ways: 4},
		{Name: "setsNP2", SizeBytes: 64 * 4 * 3, LineBytes: 64, Ways: 4},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted, want error", c.Name)
		}
	}
}

func TestSets(t *testing.T) {
	if got := small().Sets(); got != 4 {
		t.Errorf("Sets = %d, want 4", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, small())
	if hit, _ := c.Access(0x1000, false); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Error("second access missed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := mustNew(t, small())
	c.Access(0x1000, false)
	if hit, _ := c.Access(0x103F, false); !hit {
		t.Error("access within same 64B line missed")
	}
	if hit, _ := c.Access(0x1040, false); hit {
		t.Error("access to next line hit cold")
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, small()) // 4 sets, 4 ways
	// Five distinct lines mapping to set 0 (stride = sets*line = 256).
	for i := uint64(0); i < 5; i++ {
		c.Access(i*256, false)
	}
	// Line 0 was least recently used and must be gone.
	if resident(c, 0) {
		t.Error("LRU victim still present")
	}
	for i := uint64(1); i < 5; i++ {
		if !resident(c, i*256) {
			t.Errorf("line %d evicted, want resident", i)
		}
	}
}

func TestLRUTouchedLineSurvives(t *testing.T) {
	c := mustNew(t, small())
	for i := uint64(0); i < 4; i++ {
		c.Access(i*256, false)
	}
	c.Access(0, false) // touch line 0: now line 1 is LRU
	c.Access(4*256, false)
	if !resident(c, 0) {
		t.Error("recently touched line evicted")
	}
	if resident(c, 1*256) {
		t.Error("LRU line survived")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := mustNew(t, small())
	c.Access(0, true) // dirty line in set 0
	var dirty bool
	for i := uint64(1); i <= 4; i++ {
		_, d := c.Access(i*256, false)
		dirty = dirty || d
	}
	if !dirty {
		t.Error("evicting a written line did not report a dirty eviction")
	}
}

func TestOccupancy(t *testing.T) {
	c := mustNew(t, small()) // 16 lines total
	for i := uint64(0); i < 4; i++ {
		c.Access(i*64, false)
	}
	if got := c.Occupancy(); got != 0.25 {
		t.Errorf("occupancy = %v, want 0.25", got)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := mustNew(t, small())
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Accesses() != 0 {
		t.Error("stats not cleared")
	}
	if hit, _ := c.Access(0, false); !hit {
		t.Error("contents lost by ResetStats")
	}
}

// Property: a cache never holds more distinct lines than its capacity, and
// an immediately repeated access always hits.
func TestRepeatAccessAlwaysHits(t *testing.T) {
	c := mustNew(t, small())
	f := func(addrs []uint64) bool {
		for _, a := range addrs {
			c.Access(a, false)
			if hit, _ := c.Access(a, false); !hit {
				return false
			}
		}
		return c.Occupancy() <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: hit rate of a working set that fits in the cache converges to
// ~1 after the first pass.
func TestResidentWorkingSet(t *testing.T) {
	c := mustNew(t, small())
	addrs := make([]uint64, 16)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	for pass := 0; pass < 4; pass++ {
		for _, a := range addrs {
			c.Access(a, false)
		}
	}
	st := c.Stats()
	if st.Misses != 16 {
		t.Errorf("misses = %d, want 16 (compulsory only)", st.Misses)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty HitRate != 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", s.HitRate())
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	cold := h.Access(0x10000, false)
	if !cold.DRAM || cold.Latency != 1+13+120 {
		t.Errorf("cold access = %+v, want DRAM at 134 cycles", cold)
	}
	warm := h.Access(0x10000, false)
	if !warm.L1Hit || warm.Latency != 1 {
		t.Errorf("warm access = %+v, want L1 hit at 1 cycle", warm)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	cfg := DefaultHierarchy()
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, false)
	// Evict address 0 from L1 by filling its L1 set (L1D: 32KB/64B/4w
	// = 128 sets; stride = 128*64 = 8192), while staying resident in
	// the much larger L2.
	for i := uint64(1); i <= 4; i++ {
		h.Access(i*8192, false)
	}
	r := h.Access(0, false)
	if !r.L2Hit || r.Latency != 1+13 {
		t.Errorf("expected L2 hit at 14 cycles, got %+v", r)
	}
}

func TestHierarchyWayPartition(t *testing.T) {
	cfg := DefaultHierarchy()
	cfg.L2ReservedWays = 8
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.L2().Config().Ways; got != 8 {
		t.Errorf("usable L2 ways = %d, want 8", got)
	}
	if got := h.L2().Config().SizeBytes; got != 512<<10 {
		t.Errorf("usable L2 size = %d, want 512KB", got)
	}
}

func TestHierarchyRejectsFullReservation(t *testing.T) {
	cfg := DefaultHierarchy()
	cfg.L2ReservedWays = 16
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("reserving all L2 ways accepted, want error")
	}
}

func TestDRAMAccounting(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchy())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Access(uint64(rng.Intn(1<<28))&^63, false)
	}
	if h.DRAMAccesses() == 0 {
		t.Error("random far-flung accesses never reached DRAM")
	}
	h.ResetStats()
	if h.DRAMAccesses() != 0 {
		t.Error("ResetStats did not clear DRAM count")
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := mustNew(b, Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 1})
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64)&0xFFFF, false)
	}
}

// resident reports whether addr's line is in c, touching neither LRU
// state nor statistics.  Valid lines are always a set's lowest ways.
func resident(c *Cache, addr uint64) bool {
	s, tag := c.index(addr)
	for _, plane := range c.planes {
		if !plane[s].valid {
			return false
		}
		if plane[s].tag == tag {
			return true
		}
	}
	return false
}
