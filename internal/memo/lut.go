package memo

// lutEntry is one LUT entry: a tag (valid bit + LUT_ID + CRC value) and up
// to 8 bytes of data.  The model stores the full CRC; hardware stores only
// the bits above the set index, which carries the same information.  The
// three flag bytes follow the words, so an entry is 32 bytes.
type lutEntry struct {
	crc   uint64
	data  uint64
	lru   uint64
	valid bool
	lutID uint8
	// stuck marks a faulty storage cell (fault injection): the entry's
	// data can never be rewritten and the entry survives invalidation.
	stuck bool
}

// lut is one level of the lookup table: a set-associative array with true
// LRU replacement, organized so one set occupies one 64-byte line (§3.3).
type lut struct {
	cfg LUTConfig
	// ents holds every set's ways in one set-major array: set s is
	// ents[s*ways : (s+1)*ways].
	ents    []lutEntry
	ways    int
	setMask uint64
	clock   uint64
	// stick, if set, decides per insert whether the written entry
	// becomes stuck (fault injection).
	stick func() bool
}

func newLUT(cfg LUTConfig) *lut {
	sets, ways := cfg.Sets(), cfg.Ways()
	return &lut{cfg: cfg, ents: make([]lutEntry, sets*ways), ways: ways, setMask: uint64(sets - 1)}
}

// set returns the ways of the set crcVal indexes.
func (l *lut) set(crcVal uint64) []lutEntry {
	s := int(crcVal & l.setMask)
	return l.ents[s*l.ways : (s+1)*l.ways]
}

// lookup searches for {lutID, crc} and refreshes its LRU age on hit.
func (l *lut) lookup(lutID uint8, crcVal uint64) (data uint64, hit bool) {
	l.clock++
	set := l.set(crcVal)
	for i := range set {
		if set[i].valid && set[i].lutID == lutID && set[i].crc == crcVal {
			set[i].lru = l.clock
			return set[i].data, true
		}
	}
	return 0, false
}

// insert places {lutID, crc → data}, overwriting a matching entry if
// present, else filling an invalid way, else evicting the LRU victim.
// It returns the victim entry when a valid entry was displaced.
func (l *lut) insert(lutID uint8, crcVal, data uint64) (victim lutEntry, evicted bool) {
	l.clock++
	set := l.set(crcVal)
	victimIdx := -1
	for i := range set {
		if set[i].valid && set[i].lutID == lutID && set[i].crc == crcVal {
			if !set[i].stuck {
				set[i].data = data
			}
			set[i].lru = l.clock
			return lutEntry{}, false
		}
		if set[i].stuck {
			// A stuck cell can never be re-written; it is not a
			// replacement candidate.
			continue
		}
		if victimIdx < 0 {
			victimIdx = i
			continue
		}
		if !set[i].valid {
			victimIdx = i
		} else if set[victimIdx].valid && set[i].lru < set[victimIdx].lru {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		// Every way of the set is stuck: the write is lost.
		return lutEntry{}, false
	}
	if set[victimIdx].valid {
		victim, evicted = set[victimIdx], true
	}
	set[victimIdx] = lutEntry{valid: true, lutID: lutID, crc: crcVal, data: data, lru: l.clock,
		stuck: l.stick != nil && l.stick()}
	return victim, evicted
}

// corrupt rewrites the stored data of a present {lutID, crc} entry, used
// by fault injection to make bit flips persistent.  Stuck cells keep
// their frozen value.
func (l *lut) corrupt(lutID uint8, crcVal, data uint64) {
	set := l.set(crcVal)
	for i := range set {
		if set[i].valid && set[i].lutID == lutID && set[i].crc == crcVal {
			if !set[i].stuck {
				set[i].data = data
			}
			return
		}
	}
}

// invalidateEntry drops a specific {lutID, crc} entry if present.  Stuck
// cells (fault injection) cannot be cleared.
func (l *lut) invalidateEntry(lutID uint8, crcVal uint64) {
	set := l.set(crcVal)
	for i := range set {
		if set[i].valid && set[i].lutID == lutID && set[i].crc == crcVal {
			if !set[i].stuck {
				set[i] = lutEntry{}
			}
			return
		}
	}
}

// invalidateLUT clears every entry belonging to one logical LUT.  The
// hardware does this with dedicated logic in one cycle per way (Table 4).
// Stuck cells (fault injection) survive.
func (l *lut) invalidateLUT(lutID uint8) {
	for i := range l.ents {
		if e := &l.ents[i]; e.valid && e.lutID == lutID && !e.stuck {
			*e = lutEntry{}
		}
	}
}

// occupancy returns the fraction of valid entries.
func (l *lut) occupancy() float64 {
	if len(l.ents) == 0 {
		return 0
	}
	valid := 0
	for _, e := range l.ents {
		if e.valid {
			valid++
		}
	}
	return float64(valid) / float64(len(l.ents))
}
