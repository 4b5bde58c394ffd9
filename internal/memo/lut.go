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
//
// A run writes few of a large LUT's sets (one scale-1 figure sweep writes
// 14% of its L2 LUTs' sets), so a set gets storage on its first insert:
// slot maps each set to its place in chunks of chunkSets sets, and a set
// never written has no storage and misses every lookup.
type lut struct {
	cfg LUTConfig
	// slot[s] is 0 while set s was never written, else 1 + i, where i
	// counts the sets written before it: set s lives in
	// chunks[i/chunkSets], ways entries from (i%chunkSets)*ways.
	slot      []uint32
	chunks    [][]lutEntry
	chunkSets uint32
	used      uint32 // sets given storage
	ways      int
	setMask   uint64
	clock     uint64
	// stick, if set, decides per insert whether the written entry
	// becomes stuck (fault injection).
	stick func() bool
}

// lutChunkSets is the most sets one storage chunk holds: 64 sets of 8
// ways is 16 KB.  A LUT with fewer sets gets one chunk of its own size.
const lutChunkSets = 64

func newLUT(cfg LUTConfig) *lut {
	sets := cfg.Sets()
	return &lut{cfg: cfg, slot: make([]uint32, sets), chunkSets: uint32(min(sets, lutChunkSets)),
		ways: cfg.Ways(), setMask: uint64(sets - 1)}
}

// set returns the ways of the set crcVal indexes, or nil if that set was
// never written.
func (l *lut) set(crcVal uint64) []lutEntry {
	i := l.slot[crcVal&l.setMask]
	if i == 0 {
		return nil
	}
	i--
	off := int(i%l.chunkSets) * l.ways
	return l.chunks[i/l.chunkSets][off : off+l.ways]
}

// setForWrite returns the ways of the set crcVal indexes, giving the set
// storage first if it has none.
func (l *lut) setForWrite(crcVal uint64) []lutEntry {
	if set := l.set(crcVal); set != nil {
		return set
	}
	if l.used%l.chunkSets == 0 {
		l.chunks = append(l.chunks, make([]lutEntry, int(l.chunkSets)*l.ways))
	}
	l.used++
	l.slot[crcVal&l.setMask] = l.used
	return l.set(crcVal)
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
	set := l.setForWrite(crcVal)
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
// Stuck cells (fault injection) survive.  Sets never written hold no
// entries, so only the chunks are walked.
func (l *lut) invalidateLUT(lutID uint8) {
	for _, chunk := range l.chunks {
		for i := range chunk {
			if e := &chunk[i]; e.valid && e.lutID == lutID && !e.stuck {
				*e = lutEntry{}
			}
		}
	}
}
