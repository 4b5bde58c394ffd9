// Package softmemo models the paper's software-LUT contender (§6.2): the
// same memoization algorithm implemented with no hardware support.  The
// CRC is computed in software with the 8-bit-parallel algorithm — at
// least one AND, one (table) LOAD and one XOR per input byte — and the
// lookup table is a large flat array indexed by CRC mod 2^IndexBits,
// sized until speedup plateaus (the paper settles at 2^28 entries ≈ 1 GB
// for 4-byte data).
//
// Because the array is indexed by the low CRC bits with no stored tag,
// the discarded upper bits cause silent false hits; the paper reports a
// 1% average (up to 6.6%) collision rate and visibly higher output error
// for the software implementation.  This model reproduces that: entries
// remember their full CRC only to *count* collisions, never to reject
// them.
//
// The execution cost (extra dynamic instructions, cache traffic into the
// giant array) is charged by the CPU model (internal/cpu) when a program
// runs with a software unit attached.
package softmemo

import (
	"fmt"

	"axmemo/internal/approx"
	"axmemo/internal/crc"
)

// Per-operation software instruction costs, following the paper's
// accounting plus the unavoidable bookkeeping around it.
const (
	// CRCInsnsPerByte: the paper's accounting floor is one AND, one
	// LOAD and one XOR per byte (§6.2, "at least 4×3 = 12 instructions"
	// per 4-byte input); compiled table-driven CRC code additionally
	// shifts the running register and advances the byte cursor, so the
	// model charges 4 ALU operations plus the table load per byte.
	CRCInsnsPerByte = 5
	// LookupInsns: runtime call/return, CRC finalization, index mask
	// and scale, epoch/valid check, data extraction and branch.  A
	// software runtime cannot inline all of this at every site.
	LookupInsns = 12
	// UpdateInsns: runtime call, entry address recomputation, data and
	// epoch stores.
	UpdateInsns = 8
	// InvalidateInsns: bump the logical LUT's epoch counter.
	InvalidateInsns = 2
)

// Config parametrizes the software LUT.
type Config struct {
	// CRC selects the hash (32-bit CRC, as in hardware).
	CRC crc.Params
	// IndexBits is the array size exponent; the paper uses 28.
	IndexBits int
	// EntryBytes is the in-memory entry footprint (data + epoch tag).
	EntryBytes int
	// ArrayBase is the simulated base address of the array, used so
	// the cache hierarchy sees the (mostly-missing) traffic.  The
	// harness points it at a region beyond the program image.
	ArrayBase uint64
}

// DefaultConfig returns the paper's plateau configuration.
func DefaultConfig() Config {
	return Config{
		CRC:        crc.CRC32,
		IndexBits:  28,
		EntryBytes: 8,
		ArrayBase:  1 << 32,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.IndexBits < 4 || c.IndexBits > 40 {
		return fmt.Errorf("softmemo: index bits %d out of range", c.IndexBits)
	}
	if c.EntryBytes <= 0 {
		return fmt.Errorf("softmemo: entry bytes %d", c.EntryBytes)
	}
	return nil
}

// Stats accumulates software-LUT activity.
type Stats struct {
	Lookups     uint64
	Hits        uint64
	Misses      uint64
	Updates     uint64
	Invalidates uint64
	FedBytes    uint64
	// Collisions counts false hits: lookups answered with data whose
	// full CRC differed from the query's (silent wrong answers).
	Collisions uint64
}

// HitRate returns the fraction of lookups that (appeared to) hit.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

type entry struct {
	data    uint64
	fullCRC uint64
	epoch   uint32
}

type hashCtx struct {
	state   uint64
	started bool
}

// Unit is the software memoization state.
type Unit struct {
	cfg    Config
	hasher *crc.Slicing8
	ctx    [8]hashCtx
	epoch  [8]uint32
	arr    map[uint64]entry // sparse model of the flat array
	stats  Stats
	pend   [8]struct {
		valid bool
		idx   uint64
		crc   uint64
	}
}

// New builds a software unit.
func New(cfg Config) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Unit{
		cfg:    cfg,
		hasher: crc.NewSlicing8(cfg.CRC),
		arr:    make(map[uint64]entry),
	}, nil
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// Stats returns a copy of the statistics.
func (u *Unit) Stats() Stats { return u.stats }

// Feed absorbs one truncated input lane into the per-LUT software hash
// context and returns the software instruction cost: per byte, two ALU
// operations (AND, XOR) plus one load from the CRC constant table.
func (u *Unit) Feed(lut uint8, data uint64, sizeBytes int, truncBits uint) (insns, tableLoads int) {
	c := &u.ctx[lut]
	if !c.started {
		c.state = u.cfg.CRC.Init
		c.started = true
	}
	truncated := approx.Lane(data, sizeBytes, truncBits)
	u.hasher.SetState(c.state)
	u.hasher.FeedWord(truncated, sizeBytes)
	c.state = u.hasher.State()
	u.stats.FedBytes += uint64(sizeBytes)
	return (CRCInsnsPerByte - 1) * sizeBytes, sizeBytes
}

func (u *Unit) digest(lut uint8) uint64 {
	u.hasher.SetState(u.ctx[lut].state)
	return u.hasher.Sum()
}

// LookupResult describes a software lookup.
type LookupResult struct {
	Hit  bool
	Data uint64
	// Addr is the simulated array address touched, for cache modeling.
	Addr uint64
	// Insns is the software instruction cost (excluding the CRC feeds,
	// which were charged at Feed time).
	Insns int
}

// Lookup finalizes the hash and probes the array.
func (u *Unit) Lookup(lut uint8) LookupResult {
	full := u.digest(lut)
	u.ctx[lut].started = false
	idx := full & ((1 << uint(u.cfg.IndexBits)) - 1)
	key := uint64(lut)<<u.cfg.IndexBits | idx
	addr := u.cfg.ArrayBase + key*uint64(u.cfg.EntryBytes)
	u.stats.Lookups++
	res := LookupResult{Addr: addr, Insns: LookupInsns}
	e, ok := u.arr[key]
	if ok && e.epoch == u.epoch[lut] {
		u.stats.Hits++
		if e.fullCRC != full {
			// The discarded upper CRC bits differed: silent
			// false hit.
			u.stats.Collisions++
		}
		res.Hit = true
		res.Data = e.data
		return res
	}
	u.stats.Misses++
	u.pend[lut].valid = true
	u.pend[lut].idx = key
	u.pend[lut].crc = full
	return res
}

// UpdateResult describes a software update.
type UpdateResult struct {
	Addr  uint64
	Insns int
}

// Update stores data into the entry selected by the last missed lookup.
func (u *Unit) Update(lut uint8, data uint64) UpdateResult {
	res := UpdateResult{Insns: UpdateInsns}
	p := &u.pend[lut]
	if !p.valid {
		return res
	}
	p.valid = false
	u.arr[p.idx] = entry{data: data, fullCRC: p.crc, epoch: u.epoch[lut]}
	res.Addr = u.cfg.ArrayBase + p.idx*uint64(u.cfg.EntryBytes)
	u.stats.Updates++
	return res
}

// Invalidate advances the logical LUT's epoch (O(1) epoch tagging — no
// software implementation would sweep a 1 GB array).
func (u *Unit) Invalidate(lut uint8) int {
	u.epoch[lut]++
	u.stats.Invalidates++
	u.pend[lut].valid = false
	return InvalidateInsns
}
