// Package store is the disk-backed, content-addressed result store
// behind the axmemod daemon and the offline CLIs: every simulation
// result is a JSON blob keyed by a SHA-256 of what determined it
// (benchmark, configuration, seeds, code version), so any process that
// derives the same key reuses the cell instead of recomputing it.
//
// Three rules govern the on-disk state:
//
//   - Atomicity.  Blobs are written to a temp file in the store
//     directory and renamed into place, so a crash never leaves a
//     half-written entry visible under its final name.
//
//   - Self-verification.  Every blob embeds its own key and a SHA-256
//     of its payload.  A truncated, tampered or otherwise corrupted
//     blob is detected on read, deleted, and reported as a miss — the
//     caller transparently recomputes and the next Put repairs the
//     entry.  The store never errors on bad cached state.
//
//   - Bounded size.  With a MaxBytes budget, the least recently used
//     entries are evicted (files deleted) until the store fits.  The
//     entry being written always survives its own Put.
//
// The blob files are the store's only index.  Open lists the directory
// once: every well-named blob becomes an entry, sized from its file and
// ordered for LRU by its modification time; anything else is ignored.
// Recency lives in the same place — a Put stamps its blob's mtime
// before the fsync that makes the blob durable, and a Get served from
// disk re-stamps the file — so there is no second copy of the entry
// table to fall out of step, and a store abandoned without Close loses
// neither an entry nor its recency.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"axmemo/internal/obs"
)

// BlobSchema is the on-disk blob format version; bump it on any
// incompatible change.  Blobs with an unknown schema are treated as
// corrupt (a miss), never as errors.
const BlobSchema = 1

// Key is a content address: the SHA-256 of whatever determines the
// stored value.
type Key [sha256.Size]byte

// String returns the lower-case hex form (the blob's file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return Key{}, fmt.Errorf("store: bad key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// KeyOf derives a content address from its parts.  Parts are
// length-framed before hashing, so ("ab","c") and ("a","bc") produce
// different keys.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var frame [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(p)))
		h.Write(frame[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// blob is the on-disk envelope around one stored payload.
type blob struct {
	Schema  int             `json:"schema"`
	Key     string          `json:"key"`
	SHA256  string          `json:"payload_sha256"`
	Payload json.RawMessage `json:"payload"`
}

// entry is the in-memory record of one blob.  lastUsed is its recency
// stamp in Unix nanoseconds, which a disk-backed entry's blob also
// carries as its mtime.  data is nil for disk-backed entries; the
// degraded (memory-only) tier keeps the whole envelope here instead.
type entry struct {
	size     int64
	lastUsed int64
	data     []byte
}

// Stats is a point-in-time snapshot of the store's activity since Open.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Corrupt   uint64 // blobs dropped after failing validation (subset of Misses)
	Evictions uint64
	PutErrors uint64
	// Fsyncs counts fsync calls issued for durability: blob file syncs
	// before close and directory syncs after atomic renames.  The
	// durability tests assert writes are actually flushed.
	Fsyncs  uint64
	Entries int
	Bytes   int64
	// Degraded reports the memory-only tier is active: disk writes kept
	// failing (disk full, permissions, dying media) and new results are
	// held in memory instead of failing requests.
	Degraded bool
}

// Store is a content-addressed blob store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	// DegradeAfter is the consecutive-disk-failure threshold past which
	// the store drops to its memory-only tier instead of failing Puts
	// (0 = 3).  Set before first use.
	DegradeAfter int
	// Logf, if non-nil, receives degrade warnings (a daemon points it
	// at stderr; the zero value stays silent).
	Logf func(format string, args ...any)

	mu            sync.Mutex
	clock         int64 // newest recency stamp handed out (see stampLocked)
	bytes         int64
	entries       map[Key]*entry
	stats         Stats
	consecPutErrs int
	degraded      bool
	writeFault    error // injected disk failure (SetWriteFault)

	m metrics
}

// metrics are the store's obs families (nil until Attach; every obs
// method is nil-safe).
type metrics struct {
	hits, misses, corrupt, evictions, putErrors *obs.Counter
	bytes, entries, degraded                    *obs.Gauge
}

// Open loads (or creates) the store at dir.  maxBytes <= 0 disables the
// size budget.  The entry table is read from one listing of the
// directory; stale temp files from interrupted writes are removed.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: make(map[Key]*entry)}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Attach registers the store's metric families on the sink: lookup
// hits/misses/corruptions, evictions, put errors, and the current
// entry/byte gauges.  All families are deterministic for a fixed store
// state and access order: recency stamps read the wall clock, but
// eviction depends only on their order, which is the access order.
func (s *Store) Attach(sink *obs.Sink) {
	reg := sink.Reg()
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = metrics{
		hits:      reg.NewCounter("store_hits_total", obs.Opts{Help: "result-store lookups served from disk"}),
		misses:    reg.NewCounter("store_misses_total", obs.Opts{Help: "result-store lookups that fell through to recompute"}),
		corrupt:   reg.NewCounter("store_corrupt_total", obs.Opts{Help: "blobs dropped after failing validation (repaired by recompute)"}),
		evictions: reg.NewCounter("store_evictions_total", obs.Opts{Help: "entries evicted to fit the byte budget"}),
		putErrors: reg.NewCounter("store_put_errors_total", obs.Opts{Help: "failed blob writes (the run still succeeds)"}),
		bytes:     reg.NewGauge("store_bytes", obs.Opts{Help: "bytes of blobs on disk"}),
		entries:   reg.NewGauge("store_entries", obs.Opts{Help: "blobs on disk"}),
		degraded:  reg.NewGauge("store_degraded", obs.Opts{Help: "1 while the memory-only tier is active (disk writes kept failing)"}),
	}
	s.m.bytes.Set(float64(s.bytes))
	s.m.entries.Set(float64(len(s.entries)))
	if s.degraded {
		s.m.degraded.Set(1)
	}
}

// ManifestEntry is one store entry as exported by Manifest.
type ManifestEntry struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
}

// Manifest exports the live entry table sorted by key — the
// anti-entropy currency of the cluster: a rejoining peer diffs its
// manifest against its replica peers' and pulls what it is missing.
// The output is a pure function of the entry set (no recency, no map
// order), so two stores holding the same cells produce identical
// manifests.  Memory-tier entries are included: they serve Gets like
// any other entry.
func (s *Store) Manifest() []ManifestEntry {
	s.mu.Lock()
	out := make([]ManifestEntry, 0, len(s.entries))
	for k, e := range s.entries {
		out = append(out, ManifestEntry{Key: k.String(), Size: e.size})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Stats returns a snapshot of activity since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	st.Degraded = s.degraded
	return st
}

// SetWriteFault injects a disk-write failure into every subsequent
// blob write (nil restores health) — the chaos seam the degrade
// tests use, in the spirit of internal/fault.  It does not clear the
// degraded state: like a real full disk, recovery requires reopening
// the store.
func (s *Store) SetWriteFault(err error) {
	s.mu.Lock()
	s.writeFault = err
	s.mu.Unlock()
}

// Get loads the payload stored under k into v (via encoding/json) and
// reports whether it was found.  Any validation failure — unreadable
// file, bad envelope, checksum or key mismatch, undecodable payload —
// deletes the blob and reports a miss, so the caller recomputes and
// repairs the entry instead of failing.  A hit served from disk
// re-stamps the blob's mtime, which is where its recency persists.
func (s *Store) Get(k Key, v any) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		s.m.misses.Inc()
		return false
	}
	data := e.data
	if data == nil {
		var err error
		data, err = os.ReadFile(s.blobPath(k))
		if err != nil {
			s.dropLocked(k, e)
			return false
		}
	}
	payload, err := decodeBlob(k, data)
	if err != nil {
		s.dropLocked(k, e)
		return false
	}
	if err := json.Unmarshal(payload, v); err != nil {
		s.dropLocked(k, e)
		return false
	}
	e.lastUsed = s.stampLocked()
	if e.data == nil {
		// Best effort: recency is advisory, a lost stamp never loses data.
		_ = os.Chtimes(s.blobPath(k), time.Time{}, time.Unix(0, e.lastUsed))
	}
	s.stats.Hits++
	s.m.hits.Inc()
	return true
}

// Put stores v under k, replacing any previous payload, and evicts LRU
// entries if the byte budget is exceeded.  The write is atomic: readers
// either see the old complete blob or the new one.
func (s *Store) Put(k Key, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return s.putFailed(fmt.Errorf("store: encoding payload: %w", err))
	}
	sum := sha256.Sum256(payload)
	env, err := json.Marshal(blob{
		Schema:  BlobSchema,
		Key:     k.String(),
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	})
	if err != nil {
		return s.putFailed(fmt.Errorf("store: encoding blob: %w", err))
	}
	env = append(env, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	e := &entry{size: int64(len(env)), lastUsed: s.stampLocked()}
	if s.degraded {
		e.data = env
	} else if err := s.writeAtomic(s.blobPath(k), env, e.lastUsed); err != nil {
		s.diskPutErrorLocked()
		if !s.degraded {
			return err
		}
		e.data = env // this Put crossed the threshold: keep its result anyway
	} else {
		s.consecPutErrs = 0
	}
	s.addLocked(k, e)
	return nil
}

// diskPutErrorLocked counts one failed disk write; after DegradeAfter
// consecutive failures the store drops to its memory-only tier — new
// results are kept in memory, Gets keep serving, and callers stop
// seeing errors for a disk that will not heal on its own.
func (s *Store) diskPutErrorLocked() {
	s.stats.PutErrors++
	s.m.putErrors.Inc()
	s.consecPutErrs++
	threshold := s.DegradeAfter
	if threshold <= 0 {
		threshold = 3
	}
	if !s.degraded && s.consecPutErrs >= threshold {
		s.degraded = true
		s.m.degraded.Set(1)
		if s.Logf != nil {
			s.Logf("store: %d consecutive failed disk writes in %s; degrading to memory-only tier (results are no longer persisted)",
				s.consecPutErrs, s.dir)
		}
	}
}

// addLocked installs e under k, replacing any previous entry, and
// evicts to fit the budget.  An entry with data set is in the
// memory-only tier: it hits like a disk entry but dies with the
// process.
func (s *Store) addLocked(k Key, e *entry) {
	if old, ok := s.entries[k]; ok {
		s.bytes -= old.size
	}
	s.entries[k] = e
	s.bytes += e.size
	s.evictLocked()
	s.publishSizeLocked()
}

// stampLocked hands out the next recency stamp: the wall clock in Unix
// nanoseconds, forced strictly past every earlier stamp and every mtime
// seen at boot, so a coarse clock or a reopen never ties or reorders
// two entries.
func (s *Store) stampLocked() int64 {
	s.clock = max(time.Now().UnixNano(), s.clock+1)
	return s.clock
}

// Close always returns nil: every Put is durable when it returns and
// recency lives in the blobs' mtimes, so nothing is left to flush.  It
// stays so callers can release the store like any other resource.
func (s *Store) Close() error { return nil }

func (s *Store) putFailed(err error) error {
	s.mu.Lock()
	s.stats.PutErrors++
	s.mu.Unlock()
	s.m.putErrors.Inc()
	return err
}

func (s *Store) blobPath(k Key) string {
	return filepath.Join(s.dir, k.String()+".json")
}

// dropLocked removes a missing or corrupt blob and counts the lookup as
// a miss.
func (s *Store) dropLocked(k Key, e *entry) {
	os.Remove(s.blobPath(k))
	delete(s.entries, k)
	s.bytes -= e.size
	s.stats.Corrupt++
	s.stats.Misses++
	s.m.corrupt.Inc()
	s.m.misses.Inc()
	s.publishSizeLocked()
}

// evictLocked deletes least-recently-used entries until the store fits
// the budget.  The newest entry (highest lastUsed) is never evicted, so
// a Put always leaves its own blob behind even when it alone exceeds
// the budget.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && len(s.entries) > 1 {
		var victim Key
		var oldest int64 = math.MaxInt64
		for k, e := range s.entries {
			if e.lastUsed < oldest {
				oldest = e.lastUsed
				victim = k
			}
		}
		e := s.entries[victim]
		os.Remove(s.blobPath(victim))
		delete(s.entries, victim)
		s.bytes -= e.size
		s.stats.Evictions++
		s.m.evictions.Inc()
	}
}

func (s *Store) publishSizeLocked() {
	s.m.bytes.Set(float64(s.bytes))
	s.m.entries.Set(float64(len(s.entries)))
}

// writeAtomic writes data to path via a temp file in the target's
// directory and an atomic rename, with mtime (Unix ns) as the file's
// modification time.  The temp file is stamped and fsynced before the
// rename and the directory after it, so once writeAtomic returns the
// entry and its recency survive a crash or power loss — without the
// directory sync the rename itself could be lost even though the data
// blocks landed.
func (s *Store) writeAtomic(path string, data []byte, mtime int64) error {
	if s.writeFault != nil {
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), s.writeFault)
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = os.Chtimes(tmp, time.Time{}, time.Unix(0, mtime))
	}
	if werr == nil {
		werr = s.syncFile(f)
	}
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr == nil {
		werr = s.syncDir(filepath.Dir(path))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), werr)
	}
	return nil
}

// syncFile fsyncs one open file, counting the flush.
func (s *Store) syncFile(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	s.stats.Fsyncs++
	return nil
}

// syncDir fsyncs a directory so a just-renamed (or just-created) name
// in it is durable.  Best-effort on filesystems that refuse directory
// opens or syncs — the data file itself was already flushed.
func (s *Store) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if d.Sync() == nil {
		s.stats.Fsyncs++
	}
	return nil
}

// load builds the entry table from one listing of the directory.  Temp
// files left by interrupted writes are removed; every well-named
// regular blob file becomes an entry sized from its file; anything else
// — an index left by an older build, the coordinator's hints/ — is
// ignored.  Recency is ordered by (mtime, key) and then made strictly
// increasing, so ties from a coarse filesystem clock keep a fixed order
// and every later stamp lands past all of them.  Content is still
// checksum-verified on first Get, so a misnamed or stale file costs
// one miss at most.
func (s *Store) load() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type blobFile struct {
		e     *entry
		k     Key
		mtime int64
	}
	var found []blobFile
	for _, d := range names {
		if strings.HasPrefix(d.Name(), ".tmp-") {
			os.Remove(filepath.Join(s.dir, d.Name()))
			continue
		}
		stem, ok := strings.CutSuffix(d.Name(), ".json")
		if !ok {
			continue
		}
		k, err := ParseKey(stem)
		if err != nil {
			continue
		}
		fi, err := d.Info()
		if err != nil || !fi.Mode().IsRegular() {
			continue
		}
		e := &entry{size: fi.Size()}
		s.entries[k] = e
		s.bytes += e.size
		found = append(found, blobFile{e, k, fi.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return bytes.Compare(found[i].k[:], found[j].k[:]) < 0
	})
	for _, b := range found {
		s.clock = max(b.mtime, s.clock+1)
		b.e.lastUsed = s.clock
	}
	return nil
}

// decodeBlob validates the envelope around one payload: schema, stored
// key, and payload checksum must all match.
func decodeBlob(k Key, data []byte) (json.RawMessage, error) {
	var b blob
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("store: bad blob: %w", err)
	}
	if b.Schema != BlobSchema {
		return nil, fmt.Errorf("store: blob schema %d, want %d", b.Schema, BlobSchema)
	}
	if b.Key != k.String() {
		return nil, fmt.Errorf("store: blob key %s under file %s", b.Key, k)
	}
	sum := sha256.Sum256(b.Payload)
	if hex.EncodeToString(sum[:]) != b.SHA256 {
		return nil, fmt.Errorf("store: payload checksum mismatch for %s", k)
	}
	return b.Payload, nil
}
