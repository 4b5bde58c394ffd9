package memo

import (
	"errors"
	"fmt"

	"axmemo/internal/approx"
	"axmemo/internal/fault"
	"axmemo/internal/obs"
)

// Typed errors returned by the unit's operational interface.  They
// propagate through the CPU model's Machine.Run instead of panicking.
var (
	// ErrBadLUT flags a LUT id outside the 3-bit hardware space.
	ErrBadLUT = errors.New("memo: LUT id out of range")
	// ErrBadThread flags a thread id outside the configured contexts.
	ErrBadThread = errors.New("memo: thread id out of range")
	// ErrBadLane flags an input lane size other than 4 or 8 bytes.
	ErrBadLane = errors.New("memo: lane size must be 4 or 8 bytes")
)

// Stats accumulates memoization-unit activity for one run.
type Stats struct {
	Lookups     uint64
	L1Hits      uint64
	L2Hits      uint64
	Misses      uint64
	SampledHits uint64 // hits converted to misses by the quality monitor
	Updates     uint64
	Invalidates uint64
	FedBytes    uint64
	FedOps      uint64 // individual Feed calls (HVR write events)
	L2Probes    uint64 // lookups that reached the L2 LUT
	L1Evictions uint64
	L2Evictions uint64
	Collisions  uint64 // true hash collisions (TrackCollisions only)
	StrayOps    uint64 // updates with no pending allocation
	// PerLUT splits lookup/hit/miss/update activity by logical LUT for
	// the observability layer's labeled families (sampled hits count as
	// hits, as in HitRate).
	PerLUT [MaxLUTs]LUTCounters
	// HVRContexts and HVRContextsUsed report the {LUT, TID} hash
	// contexts provisioned and the subset that ever absorbed input —
	// the HVR file occupancy.
	HVRContexts     int
	HVRContextsUsed int
}

// LUTCounters is the per-logical-LUT activity split.
type LUTCounters struct {
	Lookups uint64
	Hits    uint64
	Misses  uint64
	Updates uint64
}

// HitRate returns the total hit rate across both LUT levels (Fig. 9
// reports this combined rate).  Sampled hits count as hits: the data was
// present; the monitor merely withheld it.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.L1Hits+s.L2Hits+s.SampledHits) / float64(s.Lookups)
}

// L1HitRate returns the first-level hit rate alone.
func (s Stats) L1HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.L1Hits) / float64(s.Lookups)
}

// LookupResult describes the outcome of one LUT lookup.
type LookupResult struct {
	// Hit is the outcome presented to the CPU's condition code.
	Hit bool
	// Data is the LUT data (valid when Hit).
	Data uint64
	// Level is 1 or 2 for the level that supplied the data.
	Level int
	// DoneAt is the cycle at which the result is available, including
	// any stall waiting for the CRC input queue to drain (§3.4).
	DoneAt uint64
	// Sampled reports that the quality monitor converted a hit into a
	// miss for this lookup.
	Sampled bool
}

type pending struct {
	valid       bool
	crc         uint64
	sampled     bool
	sampledData uint64
	bypass      bool // allocated while the quality guard bypasses this LUT
	inputKey    string
}

type shadowKey struct {
	lut uint8
	crc uint64
}

// Unit is one per-core memoization unit (Fig. 2): hashing unit + Hash
// Value Registers + L1 LUT, with an optional L2 LUT level.
type Unit struct {
	cfg     Config
	hvrs    *hvrFile
	l1      *lut
	l2      *lut // nil when not configured
	mon     *monitor
	outKind [MaxLUTs]OutputKind
	// pend holds at most one in-flight allocation per {LUT, TID} pair,
	// indexed lut*Threads+tid — a flat register file rather than a map,
	// so the lookup/update hot path never allocates.
	pend   []pending
	shadow map[shadowKey]string
	adapt  *adaptive
	inj    *fault.Injector // nil without fault injection
	stats  Stats
	// ctxUsed marks the {LUT, TID} HVR contexts that ever absorbed
	// input (indexed like pend), for the occupancy gauge.
	ctxUsed []bool
	// tr mirrors guard transitions and delivered faults onto the
	// timeline tracer (nil disables: one nil check per rare event).
	tr     *obs.Tracer
	obsPID int
	// lastLookupHit records whether the in-flight lookup found an
	// entry (sampled hits count), for the adaptive explorer.
	lastLookupHit bool
}

// New builds a memoization unit from a validated configuration.
func New(cfg Config) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &Unit{
		cfg:     cfg,
		hvrs:    newHVRFile(cfg.CRC, cfg.Threads, cfg.TrackCollisions, cfg.CRCBytesPerCycle),
		l1:      newLUT(cfg.L1),
		mon:     newMonitor(cfg.Monitor),
		pend:    make([]pending, MaxLUTs*cfg.Threads),
		ctxUsed: make([]bool, MaxLUTs*cfg.Threads),
	}
	u.tr = cfg.Obs.Tracer()
	u.obsPID = cfg.ObsPID
	if cfg.L2 != nil {
		u.l2 = newLUT(*cfg.L2)
	}
	if cfg.TrackCollisions {
		u.shadow = make(map[shadowKey]string)
	}
	if cfg.Adaptive.Enabled {
		if !cfg.Monitor.Enabled {
			return nil, fmt.Errorf("memo: adaptive truncation needs the quality monitor's samples")
		}
		u.adapt = &adaptive{cfg: cfg.Adaptive}
		u.mon.onWindow = func(meanErr float64) {
			if u.adapt.onWindow(meanErr) {
				// Backed off: flush entries keyed under the
				// stale truncation level.
				for lut := 0; lut < MaxLUTs; lut++ {
					u.l1.invalidateLUT(uint8(lut))
					if u.l2 != nil {
						u.l2.invalidateLUT(uint8(lut))
					}
				}
			}
		}
	}
	// Quality guard: on a trip, flush the offending LUT so corrupt
	// entries cannot outlive the disable window.  Guard transitions and
	// the global kill switch are mirrored onto the timeline tracer.
	u.mon.onGuardDisable = func(lut uint8, now uint64) {
		u.flushLUT(lut)
		u.tr.Instant("guard.disable", "memo", u.obsPID, 0, now,
			"lut", lutName(lut), "estimate", fmt.Sprintf("%.4f", u.mon.guards[lut].estimate))
	}
	u.mon.onGuardReenable = func(lut uint8, now uint64) {
		u.tr.Instant("guard.reenable", "memo", u.obsPID, 0, now, "lut", lutName(lut))
	}
	u.mon.onDisable = func(now uint64) {
		u.tr.Instant("monitor.kill_switch", "memo", u.obsPID, 0, now)
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		u.inj = fault.NewInjector(*cfg.Faults, fault.SaltMemoUnit)
		if cfg.Faults.StuckEntryRate > 0 {
			u.l1.stick = u.inj.StickEntry
			if u.l2 != nil {
				u.l2.stick = u.inj.StickEntry
			}
		}
	}
	return u, nil
}

// flushLUT clears one logical LUT in both levels plus its pending
// allocations and shadow keys, without charging program-visible
// invalidate statistics (the guard, not the program, initiated it).
func (u *Unit) flushLUT(lutID uint8) {
	u.l1.invalidateLUT(lutID)
	if u.l2 != nil {
		u.l2.invalidateLUT(lutID)
	}
	for tid := 0; tid < u.cfg.Threads; tid++ {
		u.pend[int(lutID)*u.cfg.Threads+tid] = pending{}
	}
	if u.cfg.TrackCollisions {
		for k := range u.shadow {
			if k.lut == lutID {
				delete(u.shadow, k)
			}
		}
	}
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// Stats returns a copy of the accumulated statistics.
func (u *Unit) Stats() Stats {
	s := u.stats
	s.HVRContexts = len(u.ctxUsed)
	for _, used := range u.ctxUsed {
		if used {
			s.HVRContextsUsed++
		}
	}
	return s
}

// MonitorStats returns the quality-monitor summary.
func (u *Unit) MonitorStats() MonitorStats { return u.mon.stats() }

// Disabled reports whether the quality monitor has switched memoization
// off for the remainder of the run.
func (u *Unit) Disabled() bool { return u.mon.disabled }

// FaultStats reports injected-fault activity (zero-valued without a
// fault plan).
func (u *Unit) FaultStats() fault.Stats {
	if u.inj == nil {
		return fault.Stats{}
	}
	return u.inj.Stats()
}

// checkIDs validates the {LUT, thread} address of an operation.
func (u *Unit) checkIDs(lutID uint8, tid int) error {
	if int(lutID) >= MaxLUTs {
		return fmt.Errorf("%w: %d (max %d)", ErrBadLUT, lutID, MaxLUTs-1)
	}
	if tid < 0 || tid >= u.cfg.Threads {
		return fmt.Errorf("%w: %d (unit has %d contexts)", ErrBadThread, tid, u.cfg.Threads)
	}
	return nil
}

// SetOutputKind declares the output layout of a logical LUT so the
// quality monitor can compare memoized and computed results lane-wise.
func (u *Unit) SetOutputKind(lutID uint8, kind OutputKind) error {
	if int(lutID) >= MaxLUTs {
		return fmt.Errorf("%w: %d (max %d)", ErrBadLUT, lutID, MaxLUTs-1)
	}
	u.outKind[lutID] = kind
	return nil
}

// Feed truncates data (a little-endian lane of sizeBytes) by truncBits
// and streams its bytes into the {lut, tid} CRC context at cycle now.  It
// returns the cycle at which the unit's input queue has drained those
// bytes — one byte per cycle, as in Table 4: the feeding instruction
// itself does not stall the CPU.
func (u *Unit) Feed(lutID uint8, tid int, data uint64, sizeBytes int, truncBits uint, now uint64) (uint64, error) {
	if err := u.checkIDs(lutID, tid); err != nil {
		return now, err
	}
	if sizeBytes != 4 && sizeBytes != 8 {
		return now, fmt.Errorf("%w: got %d", ErrBadLane, sizeBytes)
	}
	truncated := approx.Lane(data, sizeBytes, u.adapt.apply(truncBits, sizeBytes*8))
	if u.inj != nil {
		// Bit flips on the way into the hash unit corrupt the key, so
		// they surface as spurious misses rather than wrong outputs.
		if corrupted := u.inj.CorruptHVRFeed(truncated, sizeBytes*8); corrupted != truncated {
			truncated = corrupted
			u.tr.Instant("fault.hvr_bit_flip", "fault", u.obsPID, 0, now, "lut", lutName(lutID))
		}
	}
	u.ctxUsed[int(lutID)*u.cfg.Threads+tid] = true
	u.stats.FedBytes += uint64(sizeBytes)
	u.stats.FedOps++
	return u.hvrs.feed(lutID, tid, truncated, sizeBytes, now), nil
}

// Lookup finalizes the {lut, tid} hash and probes the LUT hierarchy at
// cycle now.  Per §3.4 the lookup stalls until any pending CRC
// calculation for this LUT has drained.  A miss allocates a pending entry
// that the matching Update will fill.
func (u *Unit) Lookup(lutID uint8, tid int, now uint64) (LookupResult, error) {
	if err := u.checkIDs(lutID, tid); err != nil {
		return LookupResult{DoneAt: now}, err
	}
	start := now
	if ra := u.hvrs.readyAt(lutID, tid); ra > start {
		start = ra
	}
	crcVal := u.hvrs.digest(lutID, tid)
	inputKey := ""
	if u.cfg.TrackCollisions {
		inputKey = u.hvrs.shadowKey(lutID, tid)
	}
	u.hvrs.reset(lutID, tid)
	u.stats.Lookups++
	u.stats.PerLUT[lutID].Lookups++
	u.lastLookupHit = false
	defer func() {
		if u.adapt != nil {
			u.adapt.onLookup(u.lastLookupHit)
		}
	}()

	res := LookupResult{DoneAt: start + uint64(u.cfg.L1.HitLatency)}
	if u.mon.disabled {
		u.stats.Misses++
		u.stats.PerLUT[lutID].Misses++
		u.allocPending(lutID, tid, crcVal, inputKey)
		return res, nil
	}
	if u.mon.guardBypass(lutID, start) {
		// The quality guard holds this LUT disabled: report a miss so
		// the program computes exactly; the matching update is
		// consumed without refilling the LUT.
		u.stats.Misses++
		u.stats.PerLUT[lutID].Misses++
		p := u.allocPending(lutID, tid, crcVal, inputKey)
		p.bypass = true
		return res, nil
	}

	if data, hit := u.l1.lookup(lutID, crcVal); hit {
		return u.finishHit(lutID, tid, crcVal, data, 1, res, inputKey), nil
	}
	if u.l2 != nil {
		res.DoneAt += uint64(u.cfg.L2.HitLatency)
		u.stats.L2Probes++
		if data, hit := u.l2.lookup(lutID, crcVal); hit {
			// Promote into L1; inclusion means the L1 victim is
			// already present in L2, so it is simply dropped.
			if _, ev := u.l1.insert(lutID, crcVal, data); ev {
				u.stats.L1Evictions++
			}
			return u.finishHit(lutID, tid, crcVal, data, 2, res, inputKey), nil
		}
	}
	u.stats.Misses++
	u.stats.PerLUT[lutID].Misses++
	u.allocPending(lutID, tid, crcVal, inputKey)
	return res, nil
}

func (u *Unit) finishHit(lutID uint8, tid int, crcVal, data uint64, level int, res LookupResult, inputKey string) LookupResult {
	u.lastLookupHit = true
	u.noteCollision(lutID, crcVal, inputKey)
	if u.inj != nil {
		// Retention errors in the LUT's approximate storage: flips are
		// persistent, so the corrupted word is written back to the
		// entry (the L1 copy; an L2 copy refreshes on the next spill).
		if corrupted := u.inj.CorruptLUTRead(data, u.cfg.L1.DataBytes*8); corrupted != data {
			data = corrupted
			u.l1.corrupt(lutID, crcVal, data)
			if u.l2 != nil {
				u.l2.corrupt(lutID, crcVal, data)
			}
			u.tr.Instant("fault.lut_bit_flip", "fault", u.obsPID, 0, res.DoneAt, "lut", lutName(lutID))
		}
	}
	if u.mon.shouldSample() {
		// Quality monitoring: report a miss; remember the memoized
		// data for comparison against the update (§6).
		u.stats.SampledHits++
		u.stats.PerLUT[lutID].Hits++
		p := u.allocPending(lutID, tid, crcVal, inputKey)
		p.sampled = true
		p.sampledData = data
		res.Hit = false
		res.Sampled = true
		return res
	}
	if level == 1 {
		u.stats.L1Hits++
	} else {
		u.stats.L2Hits++
	}
	u.stats.PerLUT[lutID].Hits++
	res.Hit = true
	res.Data = data
	res.Level = level
	return res
}

func (u *Unit) allocPending(lutID uint8, tid int, crcVal uint64, inputKey string) *pending {
	p := &u.pend[int(lutID)*u.cfg.Threads+tid]
	*p = pending{valid: true, crc: crcVal, inputKey: inputKey}
	return p
}

func (u *Unit) noteCollision(lutID uint8, crcVal uint64, inputKey string) {
	if !u.cfg.TrackCollisions {
		return
	}
	k := shadowKey{lutID, crcVal}
	if prev, ok := u.shadow[k]; ok && prev != inputKey {
		u.stats.Collisions++
	}
}

// Update fills the entry allocated by the last missed lookup of {lut,
// tid} with data, at cycle now.  It returns the cycle at which the write
// completes (Table 4: two cycles; the entry allocation already happened
// in parallel with the original computation, §3.4).
func (u *Unit) Update(lutID uint8, tid int, data uint64, now uint64) (uint64, error) {
	if err := u.checkIDs(lutID, tid); err != nil {
		return now, err
	}
	done := now + uint64(u.cfg.UpdateLatency)
	slot := &u.pend[int(lutID)*u.cfg.Threads+tid]
	if !slot.valid {
		u.stats.StrayOps++
		return done, nil
	}
	p := *slot
	*slot = pending{}
	u.stats.Updates++
	u.stats.PerLUT[lutID].Updates++
	if p.bypass {
		// Allocated while the quality guard bypassed this LUT: consume
		// the update without refilling the table.
		return done, nil
	}
	if p.sampled {
		u.mon.observe(lutID, p.sampledData, data, u.outKind[lutID], done)
	}
	if u.mon.disabled {
		return done, nil
	}
	if u.inj != nil && u.inj.DropUpdate() {
		// The LUT write is silently lost.
		u.tr.Instant("fault.dropped_update", "fault", u.obsPID, 0, done, "lut", lutName(lutID))
		return done, nil
	}
	if victim, ev := u.l1.insert(lutID, p.crc, data); ev {
		u.stats.L1Evictions++
		if u.l2 != nil {
			// Spill the L1 victim to L2 (it may already be there
			// under inclusion; insert refreshes it either way).
			if l2victim, ev2 := u.l2.insert(victim.lutID, victim.crc, victim.data); ev2 {
				u.stats.L2Evictions++
				// Maintain inclusion: drop the L2 victim from L1.
				u.l1.invalidateEntry(l2victim.lutID, l2victim.crc)
			}
		}
	}
	if u.l2 != nil {
		if l2victim, ev2 := u.l2.insert(lutID, p.crc, data); ev2 {
			u.stats.L2Evictions++
			u.l1.invalidateEntry(l2victim.lutID, l2victim.crc)
		}
	}
	if u.cfg.TrackCollisions {
		u.shadow[shadowKey{lutID, p.crc}] = p.inputKey
	}
	return done, nil
}

// Invalidate clears every entry of a logical LUT in both levels.  It
// returns the operation's cycle cost: with dedicated hardware this is one
// cycle per way in a set (Table 4).
func (u *Unit) Invalidate(lutID uint8) (int, error) {
	if int(lutID) >= MaxLUTs {
		return 0, fmt.Errorf("%w: %d (max %d)", ErrBadLUT, lutID, MaxLUTs-1)
	}
	u.stats.Invalidates++
	cost := u.cfg.L1.Ways()
	if u.l2 != nil {
		cost += u.cfg.L2.Ways()
	}
	u.flushLUT(lutID)
	return cost, nil
}
