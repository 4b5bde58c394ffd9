package store

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"axmemo/internal/obs"
)

type payload struct {
	Name  string    `json:"name"`
	Score float64   `json:"score"`
	Data  []float64 `json:"data"`
}

func TestKeyOfFraming(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("length framing lost: (ab,c) and (a,bc) collide")
	}
	if KeyOf("x") != KeyOf("x") {
		t.Fatal("KeyOf is not deterministic")
	}
	k := KeyOf("round", "trip")
	parsed, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != k {
		t.Fatalf("ParseKey(%s) = %s", k, parsed)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("bad hex parsed")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("cell", "1")
	want := payload{Name: "sobel/L1 (8KB)", Score: 0.921875, Data: []float64{1, 2.5, -3}}
	var missed payload
	if s.Get(k, &missed) {
		t.Fatal("hit before Put")
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Get(k, &got) {
		t.Fatal("miss after Put")
	}
	if got.Name != want.Name || got.Score != want.Score || len(got.Data) != 3 {
		t.Fatalf("round trip mangled payload: %+v", got)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("persist")
	if err := s.Put(k, payload{Name: "kept"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s2.Get(k, &got) || got.Name != "kept" {
		t.Fatalf("entry lost across Open: %+v", got)
	}
}

func TestIndexRebuildFromScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("rebuild")
	if err := s.Put(k, payload{Name: "scanned"}); err != nil {
		t.Fatal(err)
	}
	// Leave a stale temp file, as a write interrupted before its rename
	// would: Open must sweep it and still serve the blob.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-stale"), []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s2.Get(k, &got) || got.Name != "scanned" {
		t.Fatalf("rebuild lost the blob: %+v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-stale")); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
}

// TestCorruptionIsAMissAndRepairs is the crash-safety contract: a
// truncated or bit-flipped blob must read as a miss (never an error),
// disappear from the store, and be repaired by the caller's recompute.
func TestCorruptionIsAMissAndRepairs(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"payload bit flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip inside the payload's value, past the envelope header.
			i := strings.LastIndex(string(data), "flip-me")
			data[i] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong schema", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(`{"schema":99,"key":"","payload_sha256":"","payload":{}}`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"deleted file", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			k := KeyOf("victim", tc.name)
			if err := s.Put(k, payload{Name: "flip-me"}); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, s.blobPath(k))
			// The writer holds the payload in memory; a reopened store
			// has only the damaged file to read.
			if s, err = Open(dir, 0); err != nil {
				t.Fatal(err)
			}

			var got payload
			if s.Get(k, &got) {
				t.Fatal("corrupted blob served as a hit")
			}
			if _, err := os.Stat(s.blobPath(k)); !os.IsNotExist(err) {
				t.Fatal("corrupted blob not deleted")
			}
			// Recompute-and-Put repairs the entry.
			if err := s.Put(k, payload{Name: "flip-me"}); err != nil {
				t.Fatal(err)
			}
			if !s.Get(k, &got) || got.Name != "flip-me" {
				t.Fatal("repair failed")
			}
			st := s.Stats()
			if st.Misses != 1 || st.Hits != 1 {
				t.Fatalf("stats after corruption = %+v", st)
			}
			if tc.name != "deleted file" && st.Corrupt != 1 {
				t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
			}
		})
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{KeyOf("a"), KeyOf("b"), KeyOf("c")}
	for _, k := range keys {
		if err := s.Put(k, payload{Name: "entry", Data: make([]float64, 32)}); err != nil {
			t.Fatal(err)
		}
	}
	blobSize := s.Stats().Bytes / 3

	// Reopen with room for only two blobs; touch "a" so "b" is the LRU
	// victim when "d" arrives.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, 2*blobSize+blobSize/2)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	s.Get(keys[0], &got) // refresh a's recency; eviction happens on Put
	if err := s.Put(KeyOf("d"), payload{Name: "entry", Data: make([]float64, 32)}); err != nil {
		t.Fatal(err)
	}
	if s.Get(keys[1], &got) && s.Get(keys[2], &got) {
		t.Fatal("no entry evicted despite byte budget")
	}
	if !s.Get(keys[0], &got) {
		t.Fatal("most recently used entry evicted")
	}
	var after payload
	if !s.Get(KeyOf("d"), &after) {
		t.Fatal("newest entry evicted by its own Put")
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("evictions not counted")
	}
}

func TestObsAttach(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	s.Attach(sink)
	k := KeyOf("metered")
	var got payload
	s.Get(k, &got)
	if err := s.Put(k, payload{Name: "metered"}); err != nil {
		t.Fatal(err)
	}
	s.Get(k, &got)

	snap := string(sink.Reg().SnapshotJSON(obs.Everything))
	for _, want := range []string{"store_hits_total", "store_misses_total", "store_bytes", "store_entries"} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %s", want)
		}
	}
	hits := sink.Reg().NewCounter("store_hits_total", obs.Opts{})
	misses := sink.Reg().NewCounter("store_misses_total", obs.Opts{})
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits.Value(), misses.Value())
	}
}

// TestConcurrentAccess races writers and readers over a shared key set
// (run under -race in CI).
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := KeyOf("shared", string(rune('a'+i%4)))
				if err := s.Put(k, payload{Name: "x", Score: float64(g)}); err != nil {
					t.Error(err)
					return
				}
				var got payload
				s.Get(k, &got)
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != 4 {
		t.Fatalf("entries = %d, want 4", st.Entries)
	}
}

// TestMemoryOnlyStore: a store opened without a directory is the memory
// tier from the start — not degraded, no fsyncs — serves what it was
// given, and evicts to its byte budget like a directory store.
func TestMemoryOnlyStore(t *testing.T) {
	fill := payload{Name: "entry", Data: make([]float64, 32)}
	size := func() int64 {
		s, err := Open("", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(KeyOf("probe"), fill); err != nil {
			t.Fatal(err)
		}
		return s.Stats().Bytes
	}()
	s, err := Open("", 2*size+size/2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != "" {
		t.Fatalf("memory-only store reports directory %q", s.Dir())
	}
	keys := []Key{KeyOf("a"), KeyOf("b"), KeyOf("c")}
	for _, k := range keys[:2] {
		if err := s.Put(k, fill); err != nil {
			t.Fatal(err)
		}
	}
	var got payload
	if !s.Get(keys[0], &got) || got.Name != "entry" {
		t.Fatalf("memory entry not served: %+v", got)
	}
	if err := s.Put(keys[2], fill); err != nil { // evicts b, the least recently used
		t.Fatal(err)
	}
	if _, ok := s.Payload(keys[1]); ok {
		t.Fatal("least recently used entry survived the budget")
	}
	for _, k := range []Key{keys[0], keys[2]} {
		if _, ok := s.Payload(k); !ok {
			t.Fatalf("entry %s evicted out of LRU order", k)
		}
	}
	st := s.Stats()
	if st.Degraded || st.Fsyncs != 0 || st.Entries != 2 || st.Evictions != 1 || st.Bytes > 2*size+size/2 {
		t.Fatalf("stats = %+v, want 2 entries within the budget, one eviction, not degraded, no fsyncs", st)
	}
	if m := s.Manifest(); len(m) != 2 {
		t.Fatalf("manifest lists %d entries, want 2", len(m))
	}
}

// TestPayloadHeldOnceRead: a blob found at Open is read from disk on its
// first Get and held in memory from then on; Payload reads nothing and
// counts nothing.
func TestPayloadHeldOnceRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("held")
	if err := s.Put(k, payload{Name: "held"}); err != nil {
		t.Fatal(err)
	}
	written, ok := s.Payload(k)
	if !ok {
		t.Fatal("a Put's payload is not held in memory")
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Payload(k); ok {
		t.Fatal("Payload served a blob nobody has read since Open")
	}
	var got payload
	if !s2.Get(k, &got) || got.Name != "held" {
		t.Fatalf("blob not served: %+v", got)
	}
	// The blob is gone from disk; the payload read from it stays.
	if err := os.Remove(s2.blobPath(k)); err != nil {
		t.Fatal(err)
	}
	read, ok := s2.Payload(k)
	if !ok || string(read) != string(written) {
		t.Fatalf("payload read from disk not held: %q, want %q", read, written)
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want the one Get's hit and nothing from Payload", st)
	}
}
