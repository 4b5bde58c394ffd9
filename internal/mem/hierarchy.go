package mem

import (
	"fmt"

	"axmemo/internal/fault"
)

// HierarchyConfig describes the modeled memory system.  Defaults mirror
// the paper's Table 3 (ARM HPI): 32 KB 2-way L1I, 32 KB 4-way L1D, 2 MB
// 16-way shared L2 (1 MB enabled in system-emulation mode), DDR3 DRAM.
type HierarchyConfig struct {
	L1I Config
	L1D Config
	L2  Config
	// L2ReservedWays is the number of L2 ways carved out for AxMemo's
	// L2 LUT; they are unavailable to the normal cache.
	L2ReservedWays int
	// DRAMLatency is the flat main-memory access latency in cycles.
	DRAMLatency int
	// Faults, if non-nil and enabled, injects tag corruption into the
	// caches (rate CacheTagFlipRate); L1D and L2 draw from independent
	// seeded streams.
	Faults *fault.Plan
}

// DefaultHierarchy returns the Table 3 configuration.  Only 1 MB of the
// 2 MB L2 is enabled, as in the paper's single-core system-emulation runs.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:         Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 2, HitLatency: 1},
		L1D:         Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 1},
		L2:          Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 16, HitLatency: 13},
		DRAMLatency: 120,
	}
}

// Hierarchy simulates an L1D + shared-L2 + DRAM data path.  (Instruction
// fetch is modeled statistically by the CPU core rather than per-access;
// the L1I config is retained for energy accounting.)
type Hierarchy struct {
	cfg  HierarchyConfig
	l1d  *Cache
	l2   *Cache
	dram uint64 // accesses
}

// NewHierarchy builds the data-side hierarchy.  If L2ReservedWays > 0 the
// usable L2 is rebuilt with proportionally fewer ways and smaller size,
// modeling the way-partition granted to the L2 LUT.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l2, err := buildUsableL2(cfg)
	if err != nil {
		return nil, err
	}
	return NewHierarchySharing(cfg, l2)
}

// buildUsableL2 constructs the shared cache minus any ways reserved for
// the L2 LUT.
func buildUsableL2(cfg HierarchyConfig) (*Cache, error) {
	if cfg.L2ReservedWays < 0 || cfg.L2ReservedWays >= cfg.L2.Ways {
		if cfg.L2ReservedWays != 0 {
			return nil, fmt.Errorf("mem: cannot reserve %d of %d L2 ways", cfg.L2ReservedWays, cfg.L2.Ways)
		}
	}
	l2cfg := cfg.L2
	if cfg.L2ReservedWays > 0 {
		usable := cfg.L2.Ways - cfg.L2ReservedWays
		l2cfg.Ways = usable
		l2cfg.SizeBytes = cfg.L2.SizeBytes / cfg.L2.Ways * usable
	}
	l2, err := New(l2cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil && cfg.Faults.CacheTagFlipRate > 0 {
		l2.AttachInjector(fault.NewInjector(*cfg.Faults, fault.SaltL2Cache))
	}
	return l2, nil
}

// NewHierarchySharing builds a hierarchy whose private L1D sits in front
// of an externally owned shared L2 — the multi-core arrangement of
// Table 3, where each core has private L1s (and a private memoization
// unit) but the last-level cache is shared.  Build the shared cache once
// with SharedL2 and pass it to every core's hierarchy.
func NewHierarchySharing(cfg HierarchyConfig, sharedL2 *Cache) (*Hierarchy, error) {
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil && cfg.Faults.CacheTagFlipRate > 0 {
		l1d.AttachInjector(fault.NewInjector(*cfg.Faults, fault.SaltL1D))
	}
	return &Hierarchy{cfg: cfg, l1d: l1d, l2: sharedL2}, nil
}

// SharedL2 builds the usable shared cache for a multi-core cluster.
func SharedL2(cfg HierarchyConfig) (*Cache, error) {
	return buildUsableL2(cfg)
}

// Config returns the configuration the hierarchy was built from.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1D exposes the level-1 data cache (for statistics).
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 exposes the usable portion of the shared cache (for statistics).
func (h *Hierarchy) L2() *Cache { return h.l2 }

// DRAMAccesses reports how many accesses reached main memory.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dram }

// AccessResult describes where a data access was serviced.
type AccessResult struct {
	Latency int // total cycles
	L1Hit   bool
	L2Hit   bool
	DRAM    bool
}

// Access performs a data read or write at addr and returns its latency
// breakdown.  Misses allocate in both levels (the model keeps L2 weakly
// inclusive of L1 by allocating top-down; dirty evictions write back one
// level down and are charged on the eviction path).
func (h *Hierarchy) Access(addr uint64, write bool) AccessResult {
	res := AccessResult{Latency: h.cfg.L1D.HitLatency}
	l1hit, l1dirty := h.l1d.Access(addr, write)
	if l1hit {
		res.L1Hit = true
		return res
	}
	if l1dirty {
		// Write-back of the L1 victim into L2 (latency hidden by
		// the write buffer; capacity effect modeled).
		h.l2.Access(addr, true) // victim address unknown in tag-only model; charge a write
	}
	res.Latency += h.cfg.L2.HitLatency
	l2hit, l2dirty := h.l2.Access(addr, write)
	if l2hit {
		res.L2Hit = true
		return res
	}
	if l2dirty {
		h.dram++
	}
	res.DRAM = true
	res.Latency += h.cfg.DRAMLatency
	h.dram++
	return res
}
