package store

// Scale and durability tests for the segmented index: a healthy boot
// must replay segments without touching blob files, identical churn
// must compact to identical bytes, and a corrupt segment must degrade
// to the directory scan instead of losing data.

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

// TestBootFromSegmentsNoRescan proves the tentpole claim: a store with
// ~10k entries reopens by replaying its index segments, examining zero
// blob files (the BootInfo seam), and still serves every entry.
func TestBootFromSegmentsNoRescan(t *testing.T) {
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	boot := s2.Boot()
	if boot.Source != "segments" {
		t.Fatalf("boot source = %q, want segments", boot.Source)
	}
	if boot.BlobsStatted != 0 {
		t.Fatalf("boot statted %d blobs, want 0", boot.BlobsStatted)
	}
	if boot.Segments == 0 {
		t.Fatal("boot replayed no segments")
	}
	if st := s2.Stats(); st.Entries != n {
		t.Fatalf("reopened entries = %d, want %d", st.Entries, n)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		var p scalePayload
		if !s2.Get(scaleKey(i), &p) || p.N != i {
			t.Fatalf("entry %d lost across reopen (got %+v)", i, p)
		}
	}
}

// churn drives one store through a deterministic Put/overwrite/evict
// workload with small segment knobs, so rollovers and auto-compactions
// all fire, then compacts.
func churn(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, 40_000) // tight budget: evictions throughout
	if err != nil {
		t.Fatal(err)
	}
	s.MaxSegmentRecords = 64
	s.CompactMinAppends = 128
	for i := 0; i < 600; i++ {
		if err := s.Put(scaleKey(i%250), scalePayload{N: i, Blob: "churn"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionDeterministic runs the identical churn against two
// fresh stores and requires the surviving segment sets to match byte
// for byte: compaction output is a pure function of the operation
// history.
func TestCompactionDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	churn(t, dirA)
	churn(t, dirB)

	segsA := segmentSet(t, dirA)
	segsB := segmentSet(t, dirB)
	if len(segsA) == 0 {
		t.Fatal("no segments after churn")
	}
	if len(segsA) != len(segsB) {
		t.Fatalf("segment counts differ: %d vs %d", len(segsA), len(segsB))
	}
	for name, data := range segsA {
		other, ok := segsB[name]
		if !ok {
			t.Fatalf("segment %s missing from second store", name)
		}
		if string(data) != string(other) {
			t.Fatalf("segment %s differs between identically-churned stores", name)
		}
	}
}

func segmentSet(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segDirName, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// TestCorruptSegmentFallsBackToScan flips bytes inside a segment and
// reopens: boot must degrade to the blob scan (Source "scan"), keep
// every entry, and leave a fresh healthy segment set behind.
func TestCorruptSegmentFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := s.Put(scaleKey(i), scalePayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, segDirName, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt: %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(data[len(data)/2:], []byte("!!corrupt!!"))
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	boot := s2.Boot()
	if boot.Source != "scan" {
		t.Fatalf("boot source = %q, want scan", boot.Source)
	}
	if boot.BlobsStatted != n {
		t.Fatalf("scan statted %d blobs, want %d", boot.BlobsStatted, n)
	}
	for i := 0; i < n; i++ {
		var p scalePayload
		if !s2.Get(scaleKey(i), &p) || p.N != i {
			t.Fatalf("entry %d lost to segment corruption", i)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The rebuild left healthy segments: the next boot is a replay again.
	s3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Boot().Source; got != "segments" {
		t.Fatalf("post-repair boot source = %q, want segments", got)
	}
}

// TestTornTrailingRecordTolerated appends a partial record (a crash
// mid-append) to the active segment: boot must still replay segments,
// not fall back to the scan.
func TestTornTrailingRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(scaleKey(i), scalePayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, segDirName, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatal("no segments")
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"put","key":"ab`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Boot().Source; got != "segments" {
		t.Fatalf("boot source = %q, want segments", got)
	}
	var p scalePayload
	if !s2.Get(scaleKey(3), &p) || p.N != 3 {
		t.Fatal("entry lost to torn trailing record")
	}
}

// TestLegacyIndexMigrated opens a pre-segment store — blobs plus the
// monolithic index.json it used to keep, no segments — and pins its
// boot: the blob scan (Source "scan") stats all 6 blobs, serves every
// cell, ignores the stale index.json (not a well-named blob), and
// writes segments, so the next boot replays them.
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewind history: fabricate the pre-segment index and delete the
	// segments, as if a pre-segment store were being upgraded.
	legacy := `{"schema":1,"seq":6,"entries":[`
	for i := 0; i < 6; i++ {
		if i > 0 {
			legacy += ","
		}
		legacy += fmt.Sprintf(`{"key":%q,"size":1,"last_used":%d}`, scaleKey(i).String(), i+1)
	}
	legacy += `]}`
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, segDirName)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	boot := s2.Boot()
	if boot.Source != "scan" {
		t.Fatalf("boot source = %q, want scan", boot.Source)
	}
	if boot.BlobsStatted != 6 {
		t.Fatalf("pre-segment boot statted %d blobs, want 6", boot.BlobsStatted)
	}
	for i := 0; i < 6; i++ {
		var p scalePayload
		if !s2.Get(scaleKey(i), &p) || p.N != i {
			t.Fatalf("entry %d lost on a pre-segment boot", i)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, segDirName, segPrefix+"*"+segSuffix)); len(segs) == 0 {
		t.Fatal("pre-segment boot wrote no segments")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Boot().Source; got != "segments" {
		t.Fatalf("second boot source = %q, want segments", got)
	}
}
