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
	// lines holds every set's ways in one set-major array: set s is
	// lines[s*ways : (s+1)*ways].
	lines []line
	ways  int
	clock uint64
	stats Stats
	inj   *fault.Injector // nil without fault injection

	lineShift uint
	tagShift  uint // lineShift + log2(sets)
	setMask   uint64
}

// New builds a cache from a validated geometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, nsets*cfg.Ways),
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

// set returns the ways of addr's set and the tag addr carries.
func (c *Cache) set(addr uint64) (lines []line, tag uint64) {
	s := int((addr >> c.lineShift) & c.setMask)
	return c.lines[s*c.ways : (s+1)*c.ways], addr >> c.tagShift
}

// Access looks up addr, allocating on miss.  It returns whether the access
// hit and whether the allocation evicted a dirty victim (which the caller
// should account as a write-back to the next level).
func (c *Cache) Access(addr uint64, write bool) (hit, dirtyEvict bool) {
	c.clock++
	lines, tag := c.set(addr)
	if c.inj != nil {
		// Tag corruption: the flipped line no longer matches its
		// address, so a future access to it misses (and a clean line's
		// data is silently dropped — presence-only model, so the
		// timing/energy effect is what materializes).
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
	// Allocate: pick invalid way, else LRU victim.
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

// Probe reports whether addr is present without updating LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	lines, tag := c.set(addr)
	for _, ln := range lines {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// InvalidateAll clears every line.
func (c *Cache) InvalidateAll() {
	clear(c.lines)
}

// Occupancy returns the fraction of lines currently valid.
func (c *Cache) Occupancy() float64 {
	if len(c.lines) == 0 {
		return 0
	}
	valid := 0
	for _, ln := range c.lines {
		if ln.valid {
			valid++
		}
	}
	return float64(valid) / float64(len(c.lines))
}
