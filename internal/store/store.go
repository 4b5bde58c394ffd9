// Package store is the content-addressed result store behind the
// axmemod daemon and the offline CLIs, and the one place a finished
// simulation cell lives: every result is a JSON payload keyed by a
// SHA-256 of what determined it (benchmark, configuration, seeds, code
// version), so any caller that derives the same key reuses the cell
// instead of recomputing it.
//
// A store opened on a directory keeps each entry as a blob file there;
// a store opened without one is the memory tier from the start, and a
// directory store drops to it when disk writes keep failing.  Either
// way an entry keeps its checksum-verified payload in memory once this
// process has written or read it, so a repeated lookup never touches
// the disk, and one byte budget bounds both tiers: evicting an entry
// releases its payload and deletes its blob file.
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
//     entries are evicted until the store fits.  The entry being
//     written always survives its own Put.
//
// The blob files are the store's only index.  Open lists the directory
// once: every well-named blob becomes an entry, sized from its file and
// ordered for LRU by its modification time; anything else is ignored.
// Recency lives in the same place — a Put stamps its blob's mtime
// before the fsync that makes the blob durable, and a Get re-stamps the
// file — so there is no second copy of the entry table to fall out of
// step, and a store abandoned without Close loses neither an entry nor
// its recency.
//
// File reads, writes and fsyncs run outside the store's mutex, so a
// lookup never waits on the disk.  Only the rename that publishes a
// blob and the deletions that drop one run under it, so the directory
// and the entry table change together.
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

// entry is the in-memory record of one stored cell.  lastUsed is its
// recency stamp in Unix nanoseconds, which a disk entry's blob also
// carries as its mtime.  payload is the checksum-verified payload, held
// once this process has written or read the entry (nil for a blob found
// at Open and not read since).  disk reports a blob file backs the
// entry; a memory-tier entry dies with the process.  Only payload and
// lastUsed change after the entry is installed, both under Store.mu.
type entry struct {
	size     int64
	lastUsed int64
	payload  []byte
	disk     bool
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
	// Bytes is what the entries hold: a disk entry counts its blob
	// file, a memory-tier entry its payload.
	Bytes int64
	// Degraded reports a directory store dropped to its memory tier:
	// disk writes kept failing (disk full, permissions, dying media) and
	// new results are held in memory instead of failing requests.  A
	// store opened without a directory is never degraded.
	Degraded bool
}

// Store is a content-addressed result store, rooted at one directory or
// held in memory alone.  All methods are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

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

// Open loads (or creates) the store at dir.  An empty dir opens a
// memory-only store: the memory tier from the start, not degraded.
// maxBytes <= 0 disables the size budget.  The entry table is read from
// one listing of the directory; stale temp files from interrupted
// writes are removed.
func Open(dir string, maxBytes int64) (*Store, error) {
	s := &Store{dir: dir, maxBytes: maxBytes, entries: make(map[Key]*entry)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory ("" for a memory-only store).
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
		hits:      reg.NewCounter("store_hits_total", obs.Opts{Help: "result-store lookups served from memory or disk"}),
		misses:    reg.NewCounter("store_misses_total", obs.Opts{Help: "result-store lookups that fell through to recompute"}),
		corrupt:   reg.NewCounter("store_corrupt_total", obs.Opts{Help: "blobs dropped after failing validation (repaired by recompute)"}),
		evictions: reg.NewCounter("store_evictions_total", obs.Opts{Help: "entries evicted to fit the byte budget"}),
		putErrors: reg.NewCounter("store_put_errors_total", obs.Opts{Help: "failed blob writes (the run still succeeds)"}),
		bytes:     reg.NewGauge("store_bytes", obs.Opts{Help: "bytes the entries hold (blob files, memory-tier payloads)"}),
		entries:   reg.NewGauge("store_entries", obs.Opts{Help: "entries held"}),
		degraded:  reg.NewGauge("store_degraded", obs.Opts{Help: "1 while a directory store runs on its memory tier (disk writes kept failing)"}),
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
// reports whether it was found.  A payload held in memory is decoded
// without touching the disk; otherwise the blob is read and verified
// outside the mutex and its payload kept for later lookups.  Any
// validation failure — unreadable file, bad envelope, checksum or key
// mismatch, undecodable payload — deletes the entry and reports a miss,
// so the caller recomputes and repairs the entry instead of failing.  A
// hit re-stamps a disk entry's blob mtime, which is where its recency
// persists.
func (s *Store) Get(k Key, v any) bool {
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		s.m.misses.Inc()
		s.mu.Unlock()
		return false
	}
	payload := e.payload
	s.mu.Unlock()

	var err error
	if payload == nil {
		var data []byte
		if data, err = os.ReadFile(s.blobPath(k)); err == nil {
			payload, err = decodeBlob(k, data)
		}
	}
	if err == nil {
		err = json.Unmarshal(payload, v)
	}

	s.mu.Lock()
	if err != nil {
		s.dropLocked(k, e)
		s.mu.Unlock()
		return false
	}
	stamp := s.stampLocked()
	if s.entries[k] == e {
		e.lastUsed = stamp
		e.payload = payload
	}
	s.stats.Hits++
	s.m.hits.Inc()
	s.mu.Unlock()
	if e.disk {
		// Best effort: recency is advisory, a lost stamp never loses data.
		_ = os.Chtimes(s.blobPath(k), time.Time{}, time.Unix(0, stamp))
	}
	return true
}

// Payload returns the payload held in memory for k: false when k is
// absent or its blob has not been read since Open.  It never reads the
// disk and changes no counter; it refreshes the entry's recency in
// memory, not in its blob's mtime.  The bytes are shared: read-only.
func (s *Store) Payload(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok || e.payload == nil {
		return nil, false
	}
	e.lastUsed = s.stampLocked()
	return e.payload, true
}

// Put stores v under k, replacing any previous payload, and evicts LRU
// entries if the byte budget is exceeded.  The write is atomic: readers
// either see the old complete blob or the new one.
func (s *Store) Put(k Key, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return s.putFailed(fmt.Errorf("store: encoding payload: %w", err))
	}
	s.mu.Lock()
	e := &entry{size: int64(len(payload)), lastUsed: s.stampLocked(), payload: payload}
	fault := s.writeFault
	if s.dir == "" || s.degraded {
		s.addLocked(k, e)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

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
	tmp, err := s.writeTemp(env, e.lastUsed, fault)

	s.mu.Lock()
	if err == nil {
		s.stats.Fsyncs++ // the temp file's
		if err = os.Rename(tmp, s.blobPath(k)); err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		err = fmt.Errorf("store: writing %s.json: %w", k, err)
		failures := s.diskPutErrorLocked()
		if !s.degraded {
			s.mu.Unlock()
			return err
		}
		s.addLocked(k, e) // this Put crossed the threshold: keep its result anyway
		s.mu.Unlock()
		if failures > 0 && s.Logf != nil {
			s.Logf("store: %d consecutive failed disk writes in %s; degrading to memory-only tier (results are no longer persisted)",
				failures, s.dir)
		}
		return nil
	}
	s.consecPutErrs = 0
	e.size, e.disk = int64(len(env)), true
	s.addLocked(k, e)
	s.mu.Unlock()

	// Without the directory sync the rename itself could be lost even
	// though the data blocks landed.
	if s.syncDir() {
		s.mu.Lock()
		s.stats.Fsyncs++
		s.mu.Unlock()
	}
	return nil
}

// degradeAfter is the run of consecutive disk-write failures past which
// the store drops to its memory-only tier instead of failing Puts.
const degradeAfter = 3

// diskPutErrorLocked counts one failed disk write; after degradeAfter
// consecutive failures the store drops to its memory-only tier — new
// results are kept in memory, Gets keep serving, and callers stop
// seeing errors for a disk that will not heal on its own.  It returns
// the run of consecutive failures when this one degraded the store, and
// 0 otherwise.
func (s *Store) diskPutErrorLocked() int {
	s.stats.PutErrors++
	s.m.putErrors.Inc()
	s.consecPutErrs++
	if s.degraded || s.consecPutErrs < degradeAfter {
		return 0
	}
	s.degraded = true
	s.m.degraded.Set(1)
	return s.consecPutErrs
}

// addLocked installs e under k, replacing any previous entry, and
// evicts to fit the budget.  An entry without a blob file is in the
// memory-only tier: it hits like a disk entry but dies with the
// process.
func (s *Store) addLocked(k Key, e *entry) {
	if old, ok := s.entries[k]; ok {
		s.bytes -= old.size
	}
	s.entries[k] = e
	s.bytes += e.size
	s.evictLocked(k)
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

// dropLocked counts a lookup of e that failed validation as a miss and,
// unless a concurrent Put or eviction already replaced e, deletes it
// and its blob.
func (s *Store) dropLocked(k Key, e *entry) {
	s.stats.Misses++
	s.m.misses.Inc()
	if s.entries[k] != e {
		return
	}
	if e.disk {
		os.Remove(s.blobPath(k))
	}
	delete(s.entries, k)
	s.bytes -= e.size
	s.stats.Corrupt++
	s.m.corrupt.Inc()
	s.publishSizeLocked()
}

// evictLocked deletes least-recently-used entries until the store fits
// the budget.  keep, the entry just installed, is never evicted, so a
// Put always leaves its own entry behind even when it alone exceeds the
// budget.
func (s *Store) evictLocked(keep Key) {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && len(s.entries) > 1 {
		var victim Key
		var oldest int64 = math.MaxInt64
		for k, e := range s.entries {
			if e.lastUsed < oldest && k != keep {
				oldest = e.lastUsed
				victim = k
			}
		}
		e := s.entries[victim]
		if e.disk {
			os.Remove(s.blobPath(victim))
		}
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

// writeTemp writes data to a new temp file in the store directory with
// mtime (Unix ns) as its modification time, fsyncs and closes it, and
// returns its path for the rename that publishes it.
func (s *Store) writeTemp(data []byte, mtime int64, fault error) (string, error) {
	if fault != nil {
		return "", fault
	}
	f, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = os.Chtimes(tmp, time.Time{}, time.Unix(0, mtime))
	}
	if werr == nil {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return "", werr
	}
	return tmp, nil
}

// syncDir fsyncs the store directory so a just-renamed name in it is
// durable, reporting whether it did.  Best-effort on filesystems that
// refuse directory opens or syncs — the data file itself was already
// flushed.
func (s *Store) syncDir() bool {
	d, err := os.Open(s.dir)
	if err != nil {
		return false
	}
	defer d.Close()
	return d.Sync() == nil
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
		e := &entry{size: fi.Size(), disk: true}
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
