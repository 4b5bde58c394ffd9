// Package mem models the memory hierarchy of the evaluation platform: a
// two-level set-associative cache system over a fixed-latency DRAM, with
// support for way-partitioning the last-level cache so that part of it can
// host AxMemo's L2 lookup table (ISCA'19 §3.3, Table 3).
package mem

import (
	"fmt"

	"axmemo/internal/fault"
)

// Stats accumulates access statistics for one cache.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writes    uint64
}

// Accesses returns the total number of accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns the fraction of accesses that hit, or 0 for no accesses.
func (s Stats) HitRate() float64 {
	if n := s.Accesses(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency int // cycles
}

// Validate reports whether the geometry is realizable.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s line size %d is not a positive power of two", c.Name, c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("mem: %s has %d ways", c.Name, c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("mem: %s size %d not divisible by line*ways = %d",
			c.Name, c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

// Cache is a set-associative, write-back, write-allocate cache with true
// LRU replacement.  It tracks presence only (no data): the simulator keeps
// program data in a flat memory image and uses the cache purely for
// timing and energy accounting.
type Cache struct {
	cfg Config
	// planes[w] holds way w of every set: planes[w][s] is set s's line
	// in way w.  A run touches few of a large cache's lines (one
	// scale-1 figure sweep, 8.5% of its L2s'), so plane w is allocated
	// when the first set fills way w.  A fill takes the set's first
	// invalid way and only InvalidateAll invalidates, so a set's valid
	// lines are always its lowest ways: a scan stops at the first
	// invalid line or the last plane.
	planes [][]line
	ways   int
	clock  uint64
	stats  Stats
	inj    *fault.Injector // nil without fault injection

	lineShift uint
	tagShift  uint // lineShift + log2(sets)
	setMask   uint64
}

// New builds a cache from a validated geometry.  It allocates no lines:
// each way's plane comes with the first fill that needs it.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		planes:  make([][]line, 0, cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(nsets - 1),
	}
	c.lineShift = log2(cfg.LineBytes)
	c.tagShift = c.lineShift + log2(nsets)
	return c, nil
}

// log2 returns the base-2 logarithm of a power of two.
func log2(n int) uint {
	b := uint(0)
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// AttachInjector wires a fault injector into the cache: each access may
// corrupt a random tag of its set (see fault.Plan.CacheTagFlipRate),
// turning a later access to that line into a miss.  nil detaches.
func (c *Cache) AttachInjector(inj *fault.Injector) { c.inj = inj }

// FaultStats reports injected-fault activity (zero-valued without an
// injector).
func (c *Cache) FaultStats() fault.Stats {
	if c.inj == nil {
		return fault.Stats{}
	}
	return c.inj.Stats()
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the statistics without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// index returns addr's set and the tag addr carries.
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	return int((addr >> c.lineShift) & c.setMask), addr >> c.tagShift
}

// Access looks up addr, allocating on miss.  It returns whether the access
// hit and whether the allocation evicted a dirty victim (which the caller
// should account as a write-back to the next level).
func (c *Cache) Access(addr uint64, write bool) (hit, dirtyEvict bool) {
	c.clock++
	s, tag := c.index(addr)
	if c.inj != nil {
		// Tag corruption: the flipped line no longer matches its
		// address, so a future access to it misses (and a clean line's
		// data is silently dropped — presence-only model, so the
		// timing/energy effect is what materializes).  A way with no
		// plane holds no valid line.
		if w, flip := c.inj.FlipCacheTag(c.ways); flip && w < len(c.planes) && c.planes[w][s].valid {
			c.planes[w][s].tag ^= 1
		}
	}
	if write {
		c.stats.Writes++
	}
	w := 0
	for ; w < len(c.planes); w++ {
		ln := &c.planes[w][s]
		if !ln.valid {
			break
		}
		if ln.tag == tag {
			ln.lru = c.clock
			if write {
				ln.dirty = true
			}
			c.stats.Hits++
			return true, false
		}
	}
	c.stats.Misses++
	// Allocate: the first invalid way, else the LRU victim.
	switch w {
	case c.ways:
		w = 0
		for i := 1; i < c.ways; i++ {
			if c.planes[i][s].lru < c.planes[w][s].lru {
				w = i
			}
		}
		c.stats.Evictions++
		dirtyEvict = c.planes[w][s].dirty
	case len(c.planes):
		c.planes = append(c.planes, make([]line, c.setMask+1))
	}
	c.planes[w][s] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return false, dirtyEvict
}

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
