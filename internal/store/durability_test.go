package store

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// TestFsyncAccounting: durability is real work the stats can prove —
// every Put syncs its blob file and the directory, exactly two fsyncs,
// while Open and Close write and sync nothing.
func TestFsyncAccounting(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if names, _ := os.ReadDir(dir); len(names) != 0 || s.Stats().Fsyncs != 0 {
		t.Fatalf("Open of an empty directory wrote %d files and issued %d fsyncs", len(names), s.Stats().Fsyncs)
	}
	const puts = 5
	for i := 0; i < puts; i++ {
		before := s.Stats().Fsyncs
		if err := s.Put(KeyOf("cell", fmt.Sprint(i)), map[string]int{"v": i}); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Fsyncs - before; got != 2 {
			t.Fatalf("Put %d issued %d fsyncs, want 2 (file + dir)", i, got)
		}
	}
	before := s.Stats().Fsyncs
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := os.ReadDir(dir); len(names) != puts || s.Stats().Fsyncs != before {
		t.Fatalf("Close left %d files (want %d blobs) and issued %d fsyncs", len(names), puts, s.Stats().Fsyncs-before)
	}
}

// TestCrashSurvivesSyncedWrites is the crash simulation: writes that
// completed before the disk died are fsynced and survive a reopen
// WITHOUT a clean Close; the write that failed is simply absent — a
// miss, never a corruption.
func TestCrashSurvivesSyncedWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := []Key{KeyOf("cell", "a"), KeyOf("cell", "b"), KeyOf("cell", "c")}
	for i, k := range good {
		if err := s.Put(k, map[string]int{"v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Fsyncs == 0 {
		t.Fatal("nothing was fsynced before the simulated crash")
	}

	// The disk dies mid-flight: the in-progress Put fails, and then the
	// process "crashes" — no Close, no compaction, the store object is
	// simply abandoned.
	s.SetWriteFault(errors.New("simulated media failure"))
	lost := KeyOf("cell", "lost")
	if err := s.Put(lost, map[string]int{"v": 99}); err == nil {
		t.Fatal("Put succeeded through a dead disk")
	}

	re, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	for i, k := range good {
		var out map[string]int
		if !re.Get(k, &out) {
			t.Fatalf("synced cell %d missing after crash reopen", i)
		}
		if out["v"] != i {
			t.Fatalf("synced cell %d = %v, want v=%d", i, out, i)
		}
	}
	var out map[string]int
	if re.Get(lost, &out) {
		t.Fatal("the failed write resurrected after reopen")
	}
}

// TestRecencySurvivesCrash: a Get's recency is durable once the Get
// returns.  The store is abandoned without Close, as a crash leaves it,
// and the reopened store must still evict the entry nobody read.
func TestRecencySurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := KeyOf("hot"), KeyOf("cold")
	fill := payload{Name: "entry", Data: make([]float64, 32)}
	for _, k := range []Key{hot, cold} {
		if err := s.Put(k, fill); err != nil {
			t.Fatal(err)
		}
	}
	var got payload
	if !s.Get(hot, &got) {
		t.Fatal("hot entry missing before the crash")
	}
	held := s.Stats().Bytes // two equal-sized blobs; no Close

	// Room for two and a half blobs: the trigger's Put evicts one.
	s2, err := Open(dir, held+held/4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(KeyOf("trigger"), fill); err != nil {
		t.Fatal(err)
	}
	if s2.Get(cold, &got) {
		t.Fatal("cold entry survived: the Get's recency was lost in the crash")
	}
	if !s2.Get(hot, &got) {
		t.Fatal("hot entry evicted although it was read after the cold one was written")
	}
}

// TestEveryBlobOnDiskIsServed: the blob files are the whole index.  A
// valid blob another store wrote into the directory — the state a crash
// between a blob's rename and any index update would leave — is counted
// and served after a reopen.
func TestEveryBlobOnDiskIsServed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KeyOf("own"), payload{Name: "own"}); err != nil {
		t.Fatal(err)
	}
	own := s.Stats().Bytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	other, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	stray := KeyOf("stray")
	if err := other.Put(stray, payload{Name: "stray"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(other.blobPath(stray))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.blobPath(stray), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Entries != 2 || st.Bytes != own+int64(len(data)) {
		t.Fatalf("store reports %d entries / %d bytes, want 2 / %d", st.Entries, st.Bytes, own+int64(len(data)))
	}
	var got payload
	if !s2.Get(stray, &got) || got.Name != "stray" {
		t.Fatalf("blob on disk not served: %+v", got)
	}
}
