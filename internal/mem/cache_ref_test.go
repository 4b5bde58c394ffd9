package mem

import (
	"math/rand"
	"testing"

	"axmemo/internal/fault"
)

// Occupancy returns the fraction of lines currently valid, out of all
// sets × ways.
func (c *Cache) Occupancy() float64 {
	total := int(c.setMask+1) * c.ways
	valid := 0
	for _, plane := range c.planes {
		for _, ln := range plane {
			if ln.valid {
				valid++
			}
		}
	}
	return float64(valid) / float64(total)
}

// ResetStats clears the statistics without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// ResetStats clears all per-level statistics.
func (h *Hierarchy) ResetStats() {
	h.l1d.ResetStats()
	h.l2.ResetStats()
	h.dram = 0
}

// flatCache is the reference model for Cache: every set's ways in one
// set-major array allocated up front (set s is lines[s*ways :
// (s+1)*ways]), each access scanning all ways, with the replacement and
// tag-flip rules Cache implements on per-way planes.
type flatCache struct {
	lines     []line
	ways      int
	clock     uint64
	stats     Stats
	inj       *fault.Injector
	lineShift uint
	tagShift  uint
	setMask   uint64
}

func newFlatCache(cfg Config) *flatCache {
	nsets := cfg.Sets()
	c := &flatCache{lines: make([]line, nsets*cfg.Ways), ways: cfg.Ways, setMask: uint64(nsets - 1)}
	c.lineShift = log2(cfg.LineBytes)
	c.tagShift = c.lineShift + log2(nsets)
	return c
}

func (c *flatCache) set(addr uint64) (lines []line, tag uint64) {
	s := int((addr >> c.lineShift) & c.setMask)
	return c.lines[s*c.ways : (s+1)*c.ways], addr >> c.tagShift
}

func (c *flatCache) Access(addr uint64, write bool) (hit, dirtyEvict bool) {
	c.clock++
	lines, tag := c.set(addr)
	if c.inj != nil {
		if way, flip := c.inj.FlipCacheTag(len(lines)); flip && lines[way].valid {
			lines[way].tag ^= 1
		}
	}
	if write {
		c.stats.Writes++
	}
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.clock
			if write {
				lines[i].dirty = true
			}
			c.stats.Hits++
			return true, false
		}
	}
	c.stats.Misses++
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			goto fill
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	if lines[victim].valid {
		c.stats.Evictions++
		dirtyEvict = lines[victim].dirty
	}
fill:
	lines[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return false, dirtyEvict
}

func (c *flatCache) Occupancy() float64 {
	valid := 0
	for _, ln := range c.lines {
		if ln.valid {
			valid++
		}
	}
	return float64(valid) / float64(len(c.lines))
}

// TestCacheMatchesFlatReference drives Cache and the flat set-major model
// with the same seeded access streams — reads, writes, dirty evictions
// and, on half the runs, a tag-flip injector drawing from equal streams
// — and requires identical hits, dirty write-backs, statistics, fault
// counts and occupancy after every step, and identical lines in the set
// used every step and in every set every 64 steps.
func TestCacheMatchesFlatReference(t *testing.T) {
	cfgs := []Config{
		{Name: "L1D-like", SizeBytes: 1 << 10, LineBytes: 64, Ways: 4},
		{Name: "L2-like", SizeBytes: 64 << 10, LineBytes: 64, Ways: 16},
		{Name: "L2-partitioned", SizeBytes: 24 << 10, LineBytes: 64, Ways: 12},
	}
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 4; seed++ {
			got, want := mustNew(t, cfg), newFlatCache(cfg)
			if seed%2 == 0 {
				plan := fault.Plan{Seed: seed, CacheTagFlipRate: 0.02}
				got.AttachInjector(fault.NewInjector(plan, fault.SaltL2Cache))
				want.inj = fault.NewInjector(plan, fault.SaltL2Cache)
			}
			rng := rand.New(rand.NewSource(seed))
			// Lines number twice the capacity, so sets fill and evict.
			lines := 2 * cfg.SizeBytes / cfg.LineBytes
			dirty := 0
			for step := 0; step < 10240; step++ {
				addr := uint64(rng.Intn(lines)*cfg.LineBytes + rng.Intn(cfg.LineBytes))
				write := rng.Intn(3) == 0
				gh, gd := got.Access(addr, write)
				wh, wd := want.Access(addr, write)
				if gh != wh || gd != wd {
					t.Fatalf("%s seed %d step %d: access %#x write=%v = hit %v dirty %v, want %v %v",
						cfg.Name, seed, step, addr, write, gh, gd, wh, wd)
				}
				if wd {
					dirty++
				}
				if got.Stats() != want.stats || got.FaultStats() != faultStats(want.inj) {
					t.Fatalf("%s seed %d step %d: stats %+v %+v, want %+v %+v", cfg.Name, seed, step,
						got.Stats(), got.FaultStats(), want.stats, faultStats(want.inj))
				}
				if g, w := got.Occupancy(), want.Occupancy(); g != w {
					t.Fatalf("%s seed %d step %d: occupancy %v, want %v", cfg.Name, seed, step, g, w)
				}
				// The set just used every step, every set every 64.
				first, last := int((addr>>want.lineShift)&want.setMask), int((addr>>want.lineShift)&want.setMask)
				if step%64 == 63 {
					first, last = 0, int(want.setMask)
				}
				for s := first; s <= last; s++ {
					for w := 0; w < want.ways; w++ {
						var g line
						if w < len(got.planes) {
							g = got.planes[w][s]
						}
						if g != want.lines[s*want.ways+w] {
							t.Fatalf("%s seed %d step %d: set %d way %d = %+v, want %+v",
								cfg.Name, seed, step, s, w, g, want.lines[s*want.ways+w])
						}
					}
				}
			}
			st := want.stats
			if st.Hits == 0 || st.Evictions == 0 || dirty == 0 {
				t.Errorf("%s seed %d: stream exercised %d hits, %d evictions, %d dirty write-backs; want each > 0",
					cfg.Name, seed, st.Hits, st.Evictions, dirty)
			}
			if want.inj != nil && want.inj.Stats().CacheTagFlips == 0 {
				t.Errorf("%s seed %d: injector flipped no tag", cfg.Name, seed)
			}
		}
	}
}

func faultStats(inj *fault.Injector) fault.Stats {
	if inj == nil {
		return fault.Stats{}
	}
	return inj.Stats()
}

// TestCachePlanesGrowWithWaysFilled pins the per-way layout: a fresh 1 MB
// cache holds no lines; hits allocate none; and plane w comes with the
// first set that fills way w.
func TestCachePlanesGrowWithWaysFilled(t *testing.T) {
	cfg := DefaultHierarchy().L2 // 1 MB, 16 ways, 1024 sets
	c := mustNew(t, cfg)
	if len(c.planes) != 0 {
		t.Fatalf("fresh cache holds %d planes, want 0", len(c.planes))
	}
	stride := uint64(cfg.Sets() * cfg.LineBytes) // next line of the same set
	// One line in each of 100 sets fills way 0 only.
	for s := uint64(0); s < 100; s++ {
		c.Access(s*uint64(cfg.LineBytes), false)
	}
	if len(c.planes) != 1 {
		t.Fatalf("one line in each of 100 sets: %d planes, want 1", len(c.planes))
	}
	// Set 0 fills way by way; rereading its lines allocates nothing.
	for w := 1; w < cfg.Ways; w++ {
		c.Access(uint64(w)*stride, true)
		c.Access(0, false)
		if len(c.planes) != w+1 {
			t.Fatalf("set 0 holding %d lines: %d planes, want %d", w+1, len(c.planes), w+1)
		}
	}
	// A full set evicts in place.
	if _, dirty := c.Access(uint64(cfg.Ways)*stride, false); !dirty || len(c.planes) != cfg.Ways {
		t.Fatalf("eviction from a full set: dirty=%v, %d planes; want a dirty victim and %d planes",
			dirty, len(c.planes), cfg.Ways)
	}
	for _, p := range c.planes {
		if len(p) != cfg.Sets() {
			t.Fatalf("plane of %d lines, want one per set (%d)", len(p), cfg.Sets())
		}
	}
	if got, want := c.Occupancy(), float64(100+cfg.Ways-1)/float64(cfg.Sets()*cfg.Ways); got != want {
		t.Errorf("occupancy %v, want %v of all sets x ways", got, want)
	}
}
