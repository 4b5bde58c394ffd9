package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/store"
)

// testSuite builds a scale-1 suite with obs and a store rooted at dir
// (the store is registered for cleanup; pass "" to keep the suite's
// memory-only store).
func testSuite(t *testing.T, dir string) *harness.Suite {
	t.Helper()
	s := harness.NewSuite(1)
	s.Parallel = 2
	s.Obs = obs.NewSink()
	if dir != "" {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		s.Store = st
		st.Attach(s.Obs)
	}
	return s
}

func execCount(s *harness.Suite) uint64 {
	return s.Obs.Reg().NewCounter("harness_cell_exec_total", obs.Opts{}).Value()
}

// postJSON posts v and decodes the response body into out (if non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

// pollJob polls the job endpoint until it leaves pending/running.
func pollJob(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v jobView
		if code := getJSON(t, base+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if v.State == JobDone || v.State == JobFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sweepOnce posts one sweep and waits for it, returning the finished
// job view.
func sweepOnce(t *testing.T, base string, figures []string) jobView {
	t.Helper()
	var sr sweepResponse
	code := postJSON(t, base+"/v1/sweep", sweepRequest{Figures: figures}, &sr)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("sweep: status %d", code)
	}
	v := pollJob(t, base, sr.Job)
	if v.State != JobDone {
		t.Fatalf("job %s failed: %s", sr.Job, v.Error)
	}
	return v
}

// TestEndToEndSweep is the acceptance path: a sweep job computes and
// persists its cells; an identical sweep on the same server reuses the
// in-memory cache; a fresh server over the same store directory serves
// the whole sweep from disk — byte-identical figures, zero executions.
func TestEndToEndSweep(t *testing.T) {
	dir := t.TempDir()
	suite := testSuite(t, dir)
	srv := New(Config{Suite: suite})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}

	cells, err := harness.SweepCells("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	v1 := sweepOnce(t, ts.URL, []string{"ABL-RATE"})
	if len(v1.Results) != 1 || v1.Results[0].ID != "ABL-RATE" || v1.Results[0].Text == "" {
		t.Fatalf("job results = %+v", v1.Results)
	}
	if v1.Cells != len(cells) {
		t.Fatalf("job saw %d cells, want %d", v1.Cells, len(cells))
	}
	if got := execCount(suite); got != uint64(len(cells)) {
		t.Fatalf("cold sweep executed %d cells, want %d", got, len(cells))
	}

	// Same server, identical sweep: the suite's cell cache serves it —
	// the execution counter must not move.
	v2 := sweepOnce(t, ts.URL, []string{"ABL-RATE"})
	if v2.Results[0].Text != v1.Results[0].Text {
		t.Fatal("repeated sweep rendered different bytes")
	}
	if got := execCount(suite); got != uint64(len(cells)) {
		t.Fatalf("repeated sweep executed cells: counter = %d", got)
	}
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := suite.Store.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh process (new suite, new server), same store directory: the
	// entire sweep must come from disk with zero scheduler executions.
	suite2 := testSuite(t, dir)
	srv2 := New(Config{Suite: suite2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	v3 := sweepOnce(t, ts2.URL, []string{"ABL-RATE"})
	if v3.Results[0].Text != v1.Results[0].Text {
		t.Fatalf("store-served sweep differs:\n--- first ---\n%s--- restart ---\n%s",
			v1.Results[0].Text, v3.Results[0].Text)
	}
	if got := execCount(suite2); got != 0 {
		t.Fatalf("store-served sweep executed %d cells, want 0", got)
	}
	if st := suite2.Store.Stats(); st.Hits != uint64(len(cells)) {
		t.Fatalf("store stats after restart = %+v, want %d hits", st, len(cells))
	}

	// /metrics exposes the store and server families live.
	var m map[string]any
	if code := getJSON(t, ts2.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	raw, _ := json.Marshal(m)
	for _, fam := range []string{"store_hits_total", "server_requests_total", "harness_cell_exec_total"} {
		if !strings.Contains(string(raw), fam) {
			t.Errorf("/metrics missing family %q", fam)
		}
	}
}

// TestSweepDedupInFlight: two POSTs for the same figure set while the
// first is still running must share one job.
func TestSweepDedupInFlight(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var a, b sweepResponse
	if code := postJSON(t, ts.URL+"/v1/sweep", sweepRequest{Figures: []string{"ABL-RATE"}}, &a); code != http.StatusAccepted {
		t.Fatalf("first sweep: %d", code)
	}
	code := postJSON(t, ts.URL+"/v1/sweep", sweepRequest{Figures: []string{"ABL-RATE"}}, &b)
	if v := pollJob(t, ts.URL, a.Job); v.State != JobDone {
		t.Fatalf("job failed: %s", v.Error)
	}
	// The second POST either hit the in-flight job (200 + same ID +
	// dedup flag) or arrived after it finished (202 + new job that the
	// cell cache makes free).  Both are correct; only the former is
	// guaranteed observable without timing control, so assert on it
	// when it happened.
	if code == http.StatusOK {
		if b.Job != a.Job || !b.Deduplicated {
			t.Fatalf("in-flight dedup gave %+v, want job %s", b, a.Job)
		}
	} else if code != http.StatusAccepted {
		t.Fatalf("second sweep: %d", code)
	}
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestSimulate covers the synchronous endpoint: first run computes,
// identical rerun reports cached=true with the same key and result.
func TestSimulate(t *testing.T) {
	suite := testSuite(t, t.TempDir())
	srv := New(Config{Suite: suite})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := simulateRequest{Benchmark: "sobel"}
	var first simulateResponse
	if code := postJSON(t, ts.URL+"/v1/simulate", req, &first); code != http.StatusOK {
		t.Fatalf("simulate: %d", code)
	}
	if first.Cached {
		t.Fatal("first run reported cached")
	}
	if first.Result == nil || first.Result.Cycles == 0 {
		t.Fatalf("empty result: %+v", first.Result)
	}
	if first.Key == "" || first.Config == "" {
		t.Fatalf("missing key/config: %+v", first)
	}

	var second simulateResponse
	if code := postJSON(t, ts.URL+"/v1/simulate", req, &second); code != http.StatusOK {
		t.Fatalf("repeat simulate: %d", code)
	}
	if !second.Cached {
		t.Fatal("identical rerun not served from cache")
	}
	if second.Key != first.Key || second.Result.Cycles != first.Result.Cycles ||
		second.Result.Quality != first.Result.Quality {
		t.Fatalf("cached result drifted: %+v vs %+v", second, first)
	}

	// Baseline mode runs the exact (non-memoized) binary.
	var base simulateResponse
	if code := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Benchmark: "sobel", Mode: "baseline"}, &base); code != http.StatusOK {
		t.Fatalf("baseline simulate: %d", code)
	}
	if base.Result.Cycles == first.Result.Cycles {
		t.Fatal("baseline and memoized runs look identical")
	}
}

// TestBadRequests walks the 4xx surface.
func TestBadRequests(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		do   func() int
		want int
	}{
		{"malformed json", func() int {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader("{nope"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"unknown benchmark", func() int {
			return postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Benchmark: "quake3"}, nil)
		}, http.StatusBadRequest},
		{"unknown mode", func() int {
			return postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Benchmark: "sobel", Mode: "warp"}, nil)
		}, http.StatusBadRequest},
		{"unknown field", func() int {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
				strings.NewReader(`{"benchmark":"sobel","bogus":1}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"second json value", func() int {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
				strings.NewReader(`{"benchmark":"fft"}{"benchmark":"sobel"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"trailing garbage", func() int {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
				strings.NewReader(`{"benchmark":"fft"} garbage`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"sweep with trailing data", func() int {
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
				strings.NewReader(`{"figures":["ABL-RATE"]} x`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"unknown sweep figure", func() int {
			return postJSON(t, ts.URL+"/v1/sweep", sweepRequest{Figures: []string{"FIG-404"}}, nil)
		}, http.StatusBadRequest},
		{"unknown job", func() int {
			return getJSON(t, ts.URL+"/v1/jobs/job-999999", nil)
		}, http.StatusNotFound},
		{"unknown figure", func() int {
			return getJSON(t, ts.URL+"/v1/figures/FIG-404", nil)
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		if got := tc.do(); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFigureEndpoints: the figure list and a synchronous render.
func TestFigureEndpoints(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var list map[string][]string
	if code := getJSON(t, ts.URL+"/v1/figures", &list); code != http.StatusOK {
		t.Fatalf("figure list: %d", code)
	}
	if len(list["figures"]) == 0 {
		t.Fatal("empty figure list")
	}

	var fig figureResponse
	if code := getJSON(t, ts.URL+"/v1/figures/abl-rate", &fig); code != http.StatusOK {
		t.Fatalf("figure: %d", code)
	}
	if fig.Figure == nil || fig.Figure.ID != "ABL-RATE" || fig.Text == "" {
		t.Fatalf("figure response = %+v", fig)
	}
}

// TestConcurrentClients hammers the server from many goroutines (run
// under -race): overlapping simulates, sweeps, and polls must all
// succeed or shed load with 429 — never corrupt state.
func TestConcurrentClients(t *testing.T) {
	suite := testSuite(t, t.TempDir())
	srv := New(Config{Suite: suite, Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				switch i % 3 {
				case 0:
					var out simulateResponse
					if code := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Benchmark: "sobel"}, &out); code != http.StatusOK && code != http.StatusTooManyRequests {
						errs <- fmt.Errorf("simulate: status %d", code)
					}
				case 1:
					var sr sweepResponse
					code := postJSON(t, ts.URL+"/v1/sweep", sweepRequest{Figures: []string{"ABL-RATE"}}, &sr)
					if code == http.StatusAccepted || code == http.StatusOK {
						pollJob(t, ts.URL, sr.Job)
					} else if code != http.StatusTooManyRequests {
						errs <- fmt.Errorf("sweep: status %d", code)
					}
				default:
					if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
						errs <- fmt.Errorf("healthz: status %d", code)
					}
					getJSON(t, ts.URL+"/metrics", nil)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// All that traffic asked for the same work: exactly one ABL-RATE
	// sweep's worth of cells plus the simulate cell ever executed.
	cells, err := harness.SweepCells("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	if got, max := execCount(suite), uint64(len(cells))+1; got > max {
		t.Fatalf("executed %d cells, want <= %d (dedup failed)", got, max)
	}
}

// TestBackpressure: with every execution slot taken, the bounded queue
// admits QueueDepth waiters and 429s the rest; waiters that outlive the
// request timeout get 504.
func TestBackpressure(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite, Workers: 1, QueueDepth: 1, RequestTimeout: 150 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only slot out-of-band so no request can start.
	srv.sweepC.sem <- struct{}{}

	type result struct{ code int }
	waiter := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/figures/ABL-RATE")
		if err != nil {
			waiter <- result{-1}
			return
		}
		resp.Body.Close()
		waiter <- result{resp.StatusCode}
	}()

	// Wait until that request is queued, then overflow the queue.
	for i := 0; srv.sweepC.waiting.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("first request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/figures/ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// The queued request rides out its timeout: 504.
	select {
	case r := <-waiter:
		if r.code != http.StatusGatewayTimeout {
			t.Fatalf("queued request: status %d, want 504", r.code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never returned")
	}
	<-srv.sweepC.sem // free the slot
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutThenCached: a request that times out leaves its simulation
// running; once drained, a retry against the same suite is a cache hit.
func TestTimeoutThenCached(t *testing.T) {
	suite := testSuite(t, t.TempDir())
	slow := New(Config{Suite: suite, RequestTimeout: time.Nanosecond})
	fast := New(Config{Suite: suite})
	tsSlow := httptest.NewServer(slow.Handler())
	defer tsSlow.Close()
	tsFast := httptest.NewServer(fast.Handler())
	defer tsFast.Close()

	req := simulateRequest{Benchmark: "sobel"}
	if code := postJSON(t, tsSlow.URL+"/v1/simulate", req, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("instant-timeout simulate: status %d, want 504", code)
	}
	// The orphaned simulation finishes during drain and lands in cache.
	if err := slow.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var out simulateResponse
	if code := postJSON(t, tsFast.URL+"/v1/simulate", req, &out); code != http.StatusOK {
		t.Fatalf("retry: %d", code)
	}
	if !out.Cached {
		t.Fatal("retry after timeout was not a cache hit")
	}
}
