package memo

import (
	"math/rand"
	"testing"
)

// flatLUT is the reference model for lut: every set's ways in one
// set-major array allocated up front (set s is ents[s*ways : (s+1)*ways]),
// with the replacement, stuck-cell and invalidation rules lut implements
// on storage it gives a set on first write.
type flatLUT struct {
	ents    []lutEntry
	ways    int
	setMask uint64
	clock   uint64
	stick   func() bool
}

func newFlatLUT(cfg LUTConfig) *flatLUT {
	sets, ways := cfg.Sets(), cfg.Ways()
	return &flatLUT{ents: make([]lutEntry, sets*ways), ways: ways, setMask: uint64(sets - 1)}
}

func (l *flatLUT) set(crcVal uint64) []lutEntry {
	s := int(crcVal & l.setMask)
	return l.ents[s*l.ways : (s+1)*l.ways]
}

func (l *flatLUT) lookup(lutID uint8, crcVal uint64) (data uint64, hit bool) {
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

func (l *flatLUT) insert(lutID uint8, crcVal, data uint64) (victim lutEntry, evicted bool) {
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
		return lutEntry{}, false
	}
	if set[victimIdx].valid {
		victim, evicted = set[victimIdx], true
	}
	set[victimIdx] = lutEntry{valid: true, lutID: lutID, crc: crcVal, data: data, lru: l.clock,
		stuck: l.stick != nil && l.stick()}
	return victim, evicted
}

func (l *flatLUT) corrupt(lutID uint8, crcVal, data uint64) {
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

func (l *flatLUT) invalidateEntry(lutID uint8, crcVal uint64) {
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

func (l *flatLUT) invalidateLUT(lutID uint8) {
	for i := range l.ents {
		if e := &l.ents[i]; e.valid && e.lutID == lutID && !e.stuck {
			*e = lutEntry{}
		}
	}
}

func (l *flatLUT) occupancy() float64 {
	valid := 0
	for _, e := range l.ents {
		if e.valid {
			valid++
		}
	}
	return float64(valid) / float64(len(l.ents))
}

// occupancy returns the fraction of valid entries among all sets × ways,
// written or not.
func (l *lut) occupancy() float64 {
	total := len(l.slot) * l.ways
	if total == 0 {
		return 0
	}
	valid := 0
	for _, chunk := range l.chunks {
		for _, e := range chunk {
			if e.valid {
				valid++
			}
		}
	}
	return float64(valid) / float64(total)
}

// stickFrom returns a stuck-cell draw at rate from its own seeded stream,
// so two LUTs given equal seeds see equal draws while they insert alike.
func stickFrom(seed int64, rate float64) func() bool {
	rng := rand.New(rand.NewSource(seed))
	return func() bool { return rng.Float64() < rate }
}

// TestLUTMatchesFlatReference drives lut and the flat set-major model with
// the same seeded operation streams — inserts, lookups, corruptions,
// entry and whole-LUT invalidations, with stuck cells drawn on insert —
// and requires identical answers, victims and occupancy after every
// step, and identical contents of the set used every step and of every
// set every 64 steps, on geometries of one set, one chunk and several
// chunks, at both data widths.
func TestLUTMatchesFlatReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  LUTConfig
	}{
		{"1 set x 8 ways", LUTConfig{SizeBytes: 64, DataBytes: 4}},
		{"16 sets x 4 ways", LUTConfig{SizeBytes: 1 << 10, DataBytes: 8}},
		{"128 sets x 8 ways", LUTConfig{SizeBytes: 8 << 10, DataBytes: 4}},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			got, want := newLUT(tc.cfg), newFlatLUT(tc.cfg)
			got.stick, want.stick = stickFrom(seed, 0.03), stickFrom(seed, 0.03)
			rng := rand.New(rand.NewSource(seed))
			// Keys (with three LUT IDs) number 1.5 times the entries,
			// and whole-LUT invalidations are rare, so sets fill and
			// evict.
			keys := uint64(tc.cfg.Entries() / 2)
			hits, evictions := 0, 0
			for step := 0; step < max(8192, 16*tc.cfg.Entries()); step++ {
				lutID, crcVal, data := uint8(rng.Intn(3)), rng.Uint64()%keys*7919, rng.Uint64()
				op := rng.Intn(10000)
				switch {
				case op < 4500:
					gv, gev := got.insert(lutID, crcVal, data)
					wv, wev := want.insert(lutID, crcVal, data)
					if gv != wv || gev != wev {
						t.Fatalf("%s seed %d step %d: insert victim %+v/%v, want %+v/%v",
							tc.name, seed, step, gv, gev, wv, wev)
					}
					if wev {
						evictions++
					}
				case op < 8500:
					gd, gh := got.lookup(lutID, crcVal)
					wd, wh := want.lookup(lutID, crcVal)
					if gd != wd || gh != wh {
						t.Fatalf("%s seed %d step %d: lookup %d/%v, want %d/%v",
							tc.name, seed, step, gd, gh, wd, wh)
					}
					if wh {
						hits++
					}
				case op < 9200:
					got.corrupt(lutID, crcVal, data)
					want.corrupt(lutID, crcVal, data)
				case op < 9998:
					got.invalidateEntry(lutID, crcVal)
					want.invalidateEntry(lutID, crcVal)
				default:
					got.invalidateLUT(lutID)
					want.invalidateLUT(lutID)
				}
				if g, w := got.occupancy(), want.occupancy(); g != w {
					t.Fatalf("%s seed %d step %d: occupancy %v, want %v", tc.name, seed, step, g, w)
				}
				// The set just used every step, every set every 64.
				first, last := crcVal&want.setMask, crcVal&want.setMask
				if step%64 == 63 {
					first, last = 0, want.setMask
				}
				for s := first; s <= last; s++ {
					gs, ws := got.set(s), want.set(s)
					if gs == nil {
						gs = make([]lutEntry, want.ways)
					}
					for i := range ws {
						if gs[i] != ws[i] {
							t.Fatalf("%s seed %d step %d: set %d way %d = %+v, want %+v",
								tc.name, seed, step, s, i, gs[i], ws[i])
						}
					}
				}
			}
			stuck := 0
			for _, e := range want.ents {
				if e.stuck {
					stuck++
				}
			}
			if hits == 0 || evictions == 0 || stuck == 0 {
				t.Errorf("%s seed %d: stream exercised %d hits, %d evictions, %d stuck entries; want each > 0",
					tc.name, seed, hits, evictions, stuck)
			}
		}
	}
}

// TestLUTStorageGrowsWithSetsWritten pins the lazy layout: a fresh 512 KB
// L2 LUT holds no entry storage; lookups, corruptions and invalidations
// of unwritten sets allot none; and storage grows one chunk per
// lutChunkSets distinct sets written.
func TestLUTStorageGrowsWithSetsWritten(t *testing.T) {
	l := newLUT(LUTConfig{SizeBytes: 512 << 10, DataBytes: 4, HitLatency: 13}) // 8192 sets
	storage := func() int {
		n := 0
		for _, c := range l.chunks {
			n += len(c)
		}
		return n
	}
	if n := storage(); n != 0 {
		t.Fatalf("fresh LUT holds %d entries of storage, want 0", n)
	}
	for s := uint64(0); s < 100; s++ {
		if _, hit := l.lookup(0, s); hit {
			t.Fatalf("unwritten set %d hit", s)
		}
		l.corrupt(0, s, 1)
		l.invalidateEntry(0, s)
	}
	l.invalidateLUT(0)
	if n := storage(); n != 0 || l.used != 0 {
		t.Fatalf("reads and invalidations of unwritten sets allotted %d entries in %d sets", n, l.used)
	}
	for s := uint64(0); s < lutChunkSets+1; s++ {
		for i := uint64(0); i < 3; i++ {
			l.insert(0, s+i*8192, s) // three keys in each set
		}
		wantChunks := int(s)/lutChunkSets + 1
		if int(l.used) != int(s)+1 || len(l.chunks) != wantChunks {
			t.Fatalf("after writing %d sets: %d sets in %d chunks, want %d sets in %d", s+1, l.used,
				len(l.chunks), s+1, wantChunks)
		}
	}
	if n, want := storage(), 2*lutChunkSets*8; n != want {
		t.Errorf("%d sets written hold %d entries of storage, want %d", l.used, n, want)
	}
	if got, want := l.occupancy(), float64(3*(lutChunkSets+1))/float64(8192*8); got != want {
		t.Errorf("occupancy %v, want %v of all sets x ways", got, want)
	}
}
