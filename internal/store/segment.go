package store

// This file is the store's segmented index: the replacement for an
// earlier rewrite-the-world index.json.  The motivating
// arithmetic: a million-entry store under a monolithic index rewrites
// O(n) bytes on every Put and stats every blob file on every boot.
// The segmented design makes both O(1):
//
//   - Appends.  Every Put/evict/drop appends one JSONL record ("put"
//     with size and recency, or "del") to the active segment file under
//     <dir>/index/.  Nothing else is rewritten.
//
//   - Boot.  Healthy segments are replayed in id order to rebuild the
//     entry table — sizes and recency come from the records, so boot
//     touches zero blob files (asserted by the scale test through the
//     BootInfo seam).  Any malformed segment degrades the boot to a
//     full directory scan: slower, never lossy, because blobs are the
//     source of truth and the index is advisory.
//
//   - Compaction.  Dead records (overwrites, deletes) accumulate in the
//     log; once appends since the last compaction exceed a threshold
//     proportional to the live-entry count — or the segment count grows
//     past its cap on rollover — the whole live table is rewritten as
//     one snapshot segment (entries sorted by key, so the bytes are a
//     pure function of the table state) and older segments are deleted.
//     Close always compacts, which is also what makes Get-side LRU
//     recency durable.
//
// A torn trailing line in the highest (active) segment — the signature
// of a crash mid-append — is tolerated and dropped; the affected entry
// costs at most one recompute.  Torn or corrupt anything else fails the
// replay and falls back to the scan.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SegmentSchema versions the index segment format; segments with an
// unknown schema are treated as corrupt (boot falls back to the blob
// scan), never as errors.
const SegmentSchema = 1

const (
	segDirName = "index"
	segPrefix  = "seg-"
	segSuffix  = ".jsonl"

	defaultMaxSegmentRecords = 1 << 16
	defaultCompactMinAppends = 4096
	maxSegments              = 8
)

// segHeader is the first line of every segment file.
type segHeader struct {
	Schema  int    `json:"schema"`
	Segment uint64 `json:"segment"`
}

// segRecord is one index operation.  Op "put" records (or refreshes) an
// entry's size and recency; "del" removes it (eviction, corruption
// repair).
type segRecord struct {
	Op   string `json:"op"`
	Key  string `json:"key"`
	Size int64  `json:"size,omitempty"`
	Used uint64 `json:"used,omitempty"`
}

// BootInfo reports how the entry table was rebuilt by Open — the seam
// the scale tests use to prove a healthy boot replays segments instead
// of rescanning blobs.
type BootInfo struct {
	// Source is "segments" (healthy replay) or "scan" (no usable
	// segments: every well-named blob file was statted).
	Source string
	// Segments is the number of segment files replayed.
	Segments int
	// BlobsStatted counts blob files examined during boot; 0 on the
	// segment path.
	BlobsStatted int
}

// Boot reports how this store's entry table was rebuilt by Open.
func (s *Store) Boot() BootInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.boot
}

// Compact forces an immediate compaction: the live entry table is
// rewritten as a single snapshot segment (deterministic bytes for a
// given table state) and older segments are removed.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.segDir, fmt.Sprintf("%s%08d%s", segPrefix, id, segSuffix))
}

// parseSegName extracts the id from a segment file name.
func parseSegName(name string) (uint64, bool) {
	stem, ok := strings.CutSuffix(name, segSuffix)
	if !ok {
		return 0, false
	}
	stem, ok = strings.CutPrefix(stem, segPrefix)
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(stem, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

func (s *Store) maxSegmentRecords() int {
	if s.MaxSegmentRecords > 0 {
		return s.MaxSegmentRecords
	}
	return defaultMaxSegmentRecords
}

func (s *Store) compactMinAppends() int {
	if s.CompactMinAppends > 0 {
		return s.CompactMinAppends
	}
	return defaultCompactMinAppends
}

func (s *Store) maxSegIDLocked() uint64 {
	var max uint64
	for _, id := range s.segIDs {
		if id > max {
			max = id
		}
	}
	return max
}

// appendLocked writes one record to the active segment, opening or
// rolling segments as needed and compacting when the dead-record
// pressure or the segment count crosses its threshold.
func (s *Store) appendLocked(rec segRecord) error {
	if s.degraded {
		return nil // memory-only tier: no index to maintain
	}
	if s.writeFault != nil {
		return fmt.Errorf("store: appending index record: %w", s.writeFault)
	}
	if s.segActive != nil && s.segActiveRecs >= s.maxSegmentRecords() {
		// Rollover retires the segment: flush its appended records to
		// stable storage before letting go of the handle — without this
		// a crash could lose every record since the segment was opened.
		s.syncFile(s.segActive) //nolint:errcheck // advisory index; blobs are the source of truth
		s.segActive.Close()
		s.segActive = nil
		if len(s.segIDs) >= maxSegments {
			if err := s.compactLocked(); err != nil {
				return err
			}
		}
	}
	if s.segActive == nil {
		if err := s.openSegmentLocked(s.maxSegIDLocked() + 1); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding index record: %w", err)
	}
	if _, err := s.segActive.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("store: appending index record: %w", err)
	}
	s.segActiveRecs++
	s.segAppends++
	if s.segAppends > s.compactMinAppends()+4*len(s.entries) {
		return s.compactLocked()
	}
	return nil
}

// appendPutLocked records entry k's current size/recency; call after
// the entry table is updated.
func (s *Store) appendPutLocked(k Key) error {
	e, ok := s.entries[k]
	if !ok || e.data != nil {
		return nil
	}
	return s.appendLocked(segRecord{Op: "put", Key: k.String(), Size: e.size, Used: e.lastUsed})
}

// appendDelLocked records k's removal, best-effort: deletions are
// advisory (a stale put record costs one miss at Get time, never wrong
// data), so index trouble here must not fail eviction or repair.
func (s *Store) appendDelLocked(k Key) {
	_ = s.appendLocked(segRecord{Op: "del", Key: k.String()})
}

// openSegmentLocked creates segment id and writes its header line.
func (s *Store) openSegmentLocked(id uint64) error {
	if err := os.MkdirAll(s.segDir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(s.segPath(id), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening segment: %w", err)
	}
	hdr, err := json.Marshal(segHeader{Schema: SegmentSchema, Segment: id})
	if err != nil {
		f.Close()
		return fmt.Errorf("store: encoding segment header: %w", err)
	}
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("store: writing segment header: %w", err)
	}
	s.syncDir(s.segDir) //nolint:errcheck // best-effort: the name, not the data
	s.segActive = f
	s.segActiveID = id
	s.segActiveRecs = 0
	s.segIDs = append(s.segIDs, id)
	s.publishSegmentsLocked()
	return nil
}

// compactLocked rewrites the live table as one snapshot segment and
// deletes every older segment.  Entries are sorted by key and the
// encoding has no map iteration, so the output bytes are a pure
// function of (table state, next segment id) — the byte-determinism
// the scale test asserts.
func (s *Store) compactLocked() error {
	if s.segActive != nil {
		s.syncFile(s.segActive) //nolint:errcheck // superseded by the snapshot below
		s.segActive.Close()
		s.segActive = nil
	}
	newID := s.maxSegIDLocked() + 1

	type kv struct {
		key string
		e   *entry
	}
	live := make([]kv, 0, len(s.entries))
	for k, e := range s.entries {
		if e.data != nil {
			continue // memory-only tier: no blob on disk to reopen
		}
		live = append(live, kv{k.String(), e})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].key < live[j].key })

	var buf bytes.Buffer
	hdr, err := json.Marshal(segHeader{Schema: SegmentSchema, Segment: newID})
	if err != nil {
		return fmt.Errorf("store: encoding segment header: %w", err)
	}
	buf.Write(hdr)
	buf.WriteByte('\n')
	for _, it := range live {
		line, err := json.Marshal(segRecord{Op: "put", Key: it.key, Size: it.e.size, Used: it.e.lastUsed})
		if err != nil {
			return fmt.Errorf("store: encoding index record: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.MkdirAll(s.segDir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.writeAtomic(s.segPath(newID), buf.Bytes()); err != nil {
		return err
	}
	for _, id := range s.segIDs {
		os.Remove(s.segPath(id))
	}
	s.segIDs = []uint64{newID}
	s.segAppends = 0

	// Reopen the snapshot for appending, so subsequent Puts extend it
	// instead of fragmenting into a fresh segment per reopen.
	f, err := os.OpenFile(s.segPath(newID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening segment: %w", err)
	}
	s.segActive = f
	s.segActiveID = newID
	s.segActiveRecs = len(live)
	s.publishSegmentsLocked()
	return nil
}

// loadSegments rebuilds the entry table by replaying the segment files
// in id order.  ok=false means the segments are missing or unusable
// and the caller must fall back to the blob scan.
// A torn trailing line in the highest segment is dropped (crash
// mid-append); anything else malformed fails the whole replay.
func (s *Store) loadSegments() (ok bool) {
	names, err := os.ReadDir(s.segDir)
	if err != nil {
		return false
	}
	var ids []uint64
	for _, d := range names {
		if id, ok := parseSegName(d.Name()); ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return false
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	entries := make(map[Key]*entry)
	var seq uint64
	lastRecs := 0
	for i, id := range ids {
		recs, ok := s.replaySegment(id, i == len(ids)-1, entries, &seq)
		if !ok {
			return false
		}
		lastRecs = recs
	}

	s.entries = entries
	s.bytes = 0
	for _, e := range s.entries {
		s.bytes += e.size
	}
	s.seq = seq
	s.segIDs = ids
	s.boot = BootInfo{Source: "segments", Segments: len(ids)}

	// Reopen the highest segment for appending.
	f, err := os.OpenFile(s.segPath(ids[len(ids)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return false
	}
	s.segActive = f
	s.segActiveID = ids[len(ids)-1]
	s.segActiveRecs = lastRecs
	return true
}

// replaySegment applies one segment's records onto entries, reporting
// the record count and whether the file was healthy.
func (s *Store) replaySegment(id uint64, active bool, entries map[Key]*entry, seq *uint64) (recs int, ok bool) {
	f, err := os.Open(s.segPath(id))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		return 0, false // empty file: even the header is missing
	}
	var hdr segHeader
	if json.Unmarshal(sc.Bytes(), &hdr) != nil || hdr.Schema != SegmentSchema || hdr.Segment != id {
		return 0, false
	}
	for sc.Scan() {
		var rec segRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			// A torn final line of the active segment is a crash
			// signature, not corruption — drop it and stop.
			if active && !sc.Scan() {
				return recs, true
			}
			return 0, false
		}
		k, err := ParseKey(rec.Key)
		if err != nil {
			return 0, false
		}
		switch rec.Op {
		case "put":
			entries[k] = &entry{size: rec.Size, lastUsed: rec.Used}
			if rec.Used > *seq {
				*seq = rec.Used
			}
		case "del":
			delete(entries, k)
		default:
			return 0, false
		}
		recs++
	}
	if sc.Err() != nil {
		return 0, false
	}
	return recs, true
}

// clearSegmentsLocked removes every segment file (before a scan-path
// rebuild writes a fresh snapshot).
func (s *Store) clearSegmentsLocked() {
	if s.segActive != nil {
		s.segActive.Close()
		s.segActive = nil
	}
	names, err := os.ReadDir(s.segDir)
	if err == nil {
		for _, d := range names {
			if _, ok := parseSegName(d.Name()); ok {
				os.Remove(filepath.Join(s.segDir, d.Name()))
			}
		}
	}
	s.segIDs = nil
}

func (s *Store) publishSegmentsLocked() {
	s.m.segments.Set(float64(len(s.segIDs)))
}
