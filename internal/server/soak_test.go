package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/store"
)

// TestSoakDistinctCellsBoundHeap streams never-repeating /v1/simulate
// requests through a server wired as axmemod wires it — a metrics-only
// sink and a disk store under a byte cap — and requires the heap to
// stay bounded: finished cells live in the capped store, failed ones
// nowhere.  Every request varies max_cycles or guard_budget, which are
// in the cell's key but not in its metric run label, so the metrics
// registry holds a fixed set of series.  Half the requests finish
// (jpeg and sobel) and half halt on a 1,000-cycle budget.
func TestSoakDistinctCellsBoundHeap(t *testing.T) {
	const (
		requests = 2000
		capBytes = 256 << 10
		// The store holds at most capBytes of blobs' worth of payloads;
		// the bound leaves room for their entry records, the registry and
		// allocator slack.  Keeping every distinct cell (as a suite-wide
		// cell map would) grows the heap by about 1.4 MB here.
		maxGrowth = capBytes * 5 / 2
	)
	st, err := store.Open(t.TempDir(), capBytes)
	if err != nil {
		t.Fatal(err)
	}
	suite := harness.NewSuite(1)
	suite.Obs = &obs.Sink{Metrics: obs.NewRegistry()}
	suite.Store = st
	st.Attach(suite.Obs)
	h := New(Config{Suite: suite, Workers: 2}).Handler()

	serve := func(i int) {
		var body string
		switch bench := []string{"jpeg", "sobel"}[i/2%2]; i % 2 {
		case 0: // finishes: a cycle budget it never reaches
			body = fmt.Sprintf(`{"benchmark":%q,"max_cycles":%d}`, bench, 1<<40+i)
		default: // halts: 1,000 cycles under a distinct guard budget
			body = fmt.Sprintf(`{"benchmark":%q,"max_cycles":1000,"guard_budget":%g}`, bench, 0.01+float64(i)*1e-9)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader([]byte(body))))
		want := http.StatusOK
		if i%2 == 1 {
			want = http.StatusInternalServerError
		}
		if rec.Code != want {
			t.Fatalf("request %d %s: status %d, want %d: %s", i, body, rec.Code, want, rec.Body)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// One request of each kind first, so lazily built state (workload
	// tables, metric families) is not counted as growth.
	for i := 0; i < 4; i++ {
		serve(i)
	}
	before := heap()
	for i := 4; i < 4+requests; i++ {
		serve(i)
	}
	after := heap()
	runtime.KeepAlive(h) // the server, its suite and store are what is measured
	growth := int64(after) - int64(before)
	t.Logf("heap %d -> %d bytes (%+d, %.0f B per request); store %+v",
		before, after, growth, float64(growth)/requests, st.Stats())
	if growth > maxGrowth {
		t.Fatalf("heap grew %d bytes over %d distinct cells, want at most %d", growth, requests, maxGrowth)
	}
	if ev := st.Stats().Evictions; ev == 0 {
		t.Fatal("the store never reached its byte cap: the soak exercises nothing")
	}
}
