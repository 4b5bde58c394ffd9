package store

// Scale and layout tests for the directory-as-index boot: a 10k-entry
// store reopens with every entry counted and served, and files an older
// build left beside the blobs change nothing.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

type scalePayload struct {
	N    int    `json:"n"`
	Blob string `json:"blob"`
}

func scaleKey(i int) Key { return KeyOf("scale", fmt.Sprint(i)) }

// TestReopenTenThousand: a store with 10k entries reopens from its
// directory listing with the same entry count and byte total, and
// serves entries sampled across the key set.
func TestReopenTenThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-entry store build")
	}
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		if err := s.Put(scaleKey(i), scalePayload{N: i, Blob: "payload"}); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Stats()

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Entries != n || st.Bytes != want.Bytes {
		t.Fatalf("reopened %d entries / %d bytes, want %d / %d", st.Entries, st.Bytes, n, want.Bytes)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		var p scalePayload
		if !s2.Get(scaleKey(i), &p) || p.N != i {
			t.Fatalf("entry %d lost across reopen (got %+v)", i, p)
		}
	}
}

// TestLegacyIndexMigrated opens a store that carries the entry indexes
// older builds kept beside the blobs — a monolithic index.json and an
// index/ segment directory — and requires every blob to be counted and
// served: neither file is a blob, so boot ignores both.
func TestLegacyIndexMigrated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Put(scaleKey(i), scalePayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Stats()

	// Both older indexes list only entry 0, so a boot that trusted
	// either would lose the other five.
	legacy := fmt.Sprintf(`{"schema":1,"seq":1,"entries":[{"key":%q,"size":1,"last_used":1}]}`, scaleKey(0))
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "index"), 0o755); err != nil {
		t.Fatal(err)
	}
	seg := fmt.Sprintf("{\"schema\":1,\"segment\":1}\n{\"op\":\"put\",\"key\":%q,\"size\":1,\"used\":1}\n", scaleKey(0))
	if err := os.WriteFile(filepath.Join(dir, "index", "seg-00000001.jsonl"), []byte(seg), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Entries != 6 || st.Bytes != want.Bytes {
		t.Fatalf("boot beside older indexes: %d entries / %d bytes, want 6 / %d", st.Entries, st.Bytes, want.Bytes)
	}
	for i := 0; i < 6; i++ {
		var p scalePayload
		if !s2.Get(scaleKey(i), &p) || p.N != i {
			t.Fatalf("entry %d lost beside an older index", i)
		}
	}
}
