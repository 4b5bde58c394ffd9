package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"axmemo/internal/obs"
)

// TestDegradeToMemoryTier: after DegradeAfter consecutive disk-write
// failures the store stops failing Puts and keeps results in a
// memory-only tier — flagged on the store_degraded gauge and a logged
// warning — and Gets keep serving both tiers.
func TestDegradeToMemoryTier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.DegradeAfter = 3
	var warnings []string
	s.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	sink := obs.NewSink()
	s.Attach(sink)
	gauge := sink.Reg().NewGauge("store_degraded", obs.Opts{})

	durable := KeyOf("before", "fault")
	if err := s.Put(durable, payload{Name: "on-disk"}); err != nil {
		t.Fatal(err)
	}

	s.SetWriteFault(errors.New("disk full"))
	// The first DegradeAfter-1 failures still surface as errors.
	for i := 0; i < 2; i++ {
		if err := s.Put(KeyOf("failing", string(rune('a'+i))), payload{Name: "lost"}); err == nil {
			t.Fatalf("Put %d under write fault succeeded before the threshold", i)
		}
		if s.Stats().Degraded {
			t.Fatalf("degraded after only %d failures", i+1)
		}
	}
	// The threshold-crossing Put degrades the store AND keeps its value.
	memKey := KeyOf("crossing")
	if err := s.Put(memKey, payload{Name: "in-memory"}); err != nil {
		t.Fatalf("threshold-crossing Put errored: %v", err)
	}
	st := s.Stats()
	if !st.Degraded || st.PutErrors != 3 {
		t.Fatalf("stats after threshold = %+v, want degraded with 3 put errors", st)
	}
	if gauge.Value() != 1 {
		t.Fatalf("store_degraded gauge = %v, want 1", gauge.Value())
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "memory-only") {
		t.Fatalf("degrade warning not logged: %q", warnings)
	}

	// Both tiers keep serving; new Puts succeed without touching disk.
	var got payload
	if !s.Get(durable, &got) || got.Name != "on-disk" {
		t.Fatal("disk-backed entry lost after degrade")
	}
	if !s.Get(memKey, &got) || got.Name != "in-memory" {
		t.Fatal("memory-tier entry not served")
	}
	another := KeyOf("after", "degrade")
	if err := s.Put(another, payload{Name: "also-memory"}); err != nil {
		t.Fatalf("degraded Put errored: %v", err)
	}
	if !s.Get(another, &got) || got.Name != "also-memory" {
		t.Fatal("post-degrade Put not served")
	}

	// Like a real full disk, clearing the fault does not un-degrade a
	// running store; recovery is a reopen.
	s.SetWriteFault(nil)
	if !s.Stats().Degraded {
		t.Fatal("store silently recovered without a reopen")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("degraded Close must be best-effort, got %v", err)
	}

	// Reopen: the disk-backed entry survives, the memory tier is gone
	// (by design — it was never persisted), and the store is healthy.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Get(durable, &got) || got.Name != "on-disk" {
		t.Fatal("durable entry lost across reopen")
	}
	if s2.Get(memKey, &got) {
		t.Fatal("memory-only entry reappeared after reopen")
	}
	if s2.Stats().Degraded {
		t.Fatal("fresh store born degraded")
	}
}

// TestDegradeCloseUnderFault: Close on a degraded store whose disk is
// still failing returns nil — the caller's shutdown must not fail on a
// disk that already proved itself broken — and the degrade itself is
// logged once.
func TestDegradeCloseUnderFault(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.DegradeAfter = 1
	var warnings []string
	s.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	s.SetWriteFault(errors.New("io error"))
	if err := s.Put(KeyOf("x"), payload{Name: "x"}); err != nil {
		t.Fatalf("threshold-1 Put errored: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("degraded Close = %v, want nil", err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "memory-only") {
		t.Fatalf("warnings = %q, want the one degrade note", warnings)
	}
}

// TestHealthyPutResetsDegradeCounter: scattered failures with successes
// in between never degrade the store — only consecutive ones do.
func TestHealthyPutResetsDegradeCounter(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.DegradeAfter = 2
	fault := errors.New("transient")
	for i := 0; i < 4; i++ {
		s.SetWriteFault(fault)
		if err := s.Put(KeyOf("fail", string(rune('a'+i))), payload{}); err == nil {
			t.Fatal("faulted Put succeeded")
		}
		s.SetWriteFault(nil)
		if err := s.Put(KeyOf("ok", string(rune('a'+i))), payload{}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Degraded {
		t.Fatal("non-consecutive failures degraded the store")
	}
}

// TestLRURecencyPersistsAcrossReopenConcurrent (run under -race): Get
// recency accumulated by concurrent readers is durable across
// Close/Open, so the reopened store evicts the actually-cold entry.
func TestLRURecencyPersistsAcrossReopenConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := KeyOf("hot"), KeyOf("cold")
	fill := payload{Name: "entry", Data: make([]float64, 32)}
	if err := s.Put(cold, fill); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(hot, fill); err != nil {
		t.Fatal(err)
	}

	// Concurrent readers hammer "hot" while writers churn other keys;
	// "cold" is never touched again.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var got payload
				if !s.Get(hot, &got) {
					t.Error("hot entry went missing mid-run")
					return
				}
				if err := s.Put(KeyOf("churn", string(rune('a'+g))), fill); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	blobSize := s.Stats().Bytes / int64(s.Stats().Entries)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a budget that forces one eviction on the next Put: the
	// victim must be "cold", proving the Gets' recency survived the
	// reopen rather than being reset to insertion order.
	s2, err := Open(dir, s.Stats().Bytes+blobSize/2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(KeyOf("trigger"), fill); err != nil {
		t.Fatal(err)
	}
	var got payload
	if s2.Get(cold, &got) {
		t.Fatal("cold entry survived: Get recency was not persisted across reopen")
	}
	if !s2.Get(hot, &got) {
		t.Fatal("hot entry evicted despite its persisted recency")
	}
	if s2.Stats().Evictions == 0 {
		t.Fatal("no eviction recorded")
	}
}
