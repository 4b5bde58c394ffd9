package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"axmemo/internal/cluster"
	"axmemo/internal/harness"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

// TestHealthzBody: /healthz reports the compatibility facts peers need
// — the ResultsVersion behind every store key — plus the store's
// population, whether the store has a directory or not, and gains a
// cluster section when a coordinator is attached.
func TestHealthzBody(t *testing.T) {
	var hs cluster.HealthStatus
	for _, dir := range []string{t.TempDir(), ""} {
		ts := httptest.NewServer(New(Config{Suite: testSuite(t, dir)}).Handler())
		defer ts.Close()

		if code := getJSON(t, ts.URL+"/healthz", &hs); code != http.StatusOK {
			t.Fatalf("healthz: %d", code)
		}
		if hs.Status != "ok" || hs.ResultsVersion != harness.ResultsVersion {
			t.Fatalf("store dir %q: healthz = %+v, want ok at version %d", dir, hs, harness.ResultsVersion)
		}
		if hs.StoreEntries != 0 || hs.Cluster != nil {
			t.Fatalf("store dir %q: fresh single-node healthz = %+v", dir, hs)
		}

		// One simulation lands in the store and shows up in the counts.
		if code := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Benchmark: "sobel"}, nil); code != http.StatusOK {
			t.Fatalf("simulate: %d", code)
		}
		if code := getJSON(t, ts.URL+"/healthz", &hs); code != http.StatusOK {
			t.Fatalf("healthz: %d", code)
		}
		if hs.Status != "ok" || hs.StoreEntries != 1 || hs.StoreBytes <= 0 {
			t.Fatalf("store dir %q: healthz after one put = %+v, want ok with 1 entry", dir, hs)
		}
	}

	// A coordinator daemon additionally reports its membership view.
	co, err := cluster.NewCoordinator(cluster.Config{
		Peers: []cluster.Peer{{ID: "shard-0", Addr: "127.0.0.1:1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	csrv := New(Config{Suite: testSuite(t, ""), Cluster: co})
	cts := httptest.NewServer(csrv.Handler())
	defer cts.Close()
	if code := getJSON(t, cts.URL+"/healthz", &hs); code != http.StatusOK {
		t.Fatalf("coordinator healthz: %d", code)
	}
	if hs.Cluster == nil || len(hs.Cluster.Peers) != 1 || hs.Cluster.Peers[0].ID != "shard-0" {
		t.Fatalf("coordinator healthz cluster section = %+v", hs.Cluster)
	}
}

// TestCellEndpoint: the shard side of the cluster protocol — checksummed
// results, cached flag on reruns, and 409 on version or scale skew.
func TestCellEndpoint(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := cluster.CellRequest{
		Version: harness.ResultsVersion,
		Scale:   1,
		Cell:    harness.SweepCell{Workload: "sobel", Baseline: true},
	}
	var first cluster.CellResponse
	if code := postJSON(t, ts.URL+"/v1/cells", req, &first); code != http.StatusOK {
		t.Fatalf("cells: %d", code)
	}
	if first.Cached {
		t.Fatal("first cell claimed cached")
	}
	sum := sha256.Sum256(first.Result)
	if hex.EncodeToString(sum[:]) != first.SHA256 {
		t.Fatalf("result checksum mismatch: body hashes to %x, response says %s", sum, first.SHA256)
	}
	cfg := harness.Baseline()
	cfg.Scale = 1
	if want := harness.CellStoreKey("sobel", cfg).String(); first.Key != want {
		t.Fatalf("cell key = %s, want %s", first.Key, want)
	}
	var res harness.Result
	if err := json.Unmarshal(first.Result, &res); err != nil || res.Cycles == 0 {
		t.Fatalf("result payload: err=%v res=%+v", err, res)
	}

	var second cluster.CellResponse
	if code := postJSON(t, ts.URL+"/v1/cells", req, &second); code != http.StatusOK {
		t.Fatalf("repeat cells: %d", code)
	}
	if !second.Cached || second.SHA256 != first.SHA256 {
		t.Fatalf("rerun not served byte-identically from cache: %+v", second)
	}

	skewed := req
	skewed.Version = 999
	if code := postJSON(t, ts.URL+"/v1/cells", skewed, nil); code != http.StatusConflict {
		t.Fatalf("version skew: %d, want 409", code)
	}
	scaled := req
	scaled.Scale = 7
	if code := postJSON(t, ts.URL+"/v1/cells", scaled, nil); code != http.StatusConflict {
		t.Fatalf("scale skew: %d, want 409", code)
	}
	if code := postJSON(t, ts.URL+"/v1/cells",
		cluster.CellRequest{Version: harness.ResultsVersion, Scale: 1,
			Cell: harness.SweepCell{Workload: "quake3"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown workload: %d, want 400", code)
	}
}

// cellBody is a /v1/cells body for a sobel cell under config, a JSON
// harness.Config.
func cellBody(config string) string {
	return fmt.Sprintf(`{"results_version":%d,"scale":1,"cell":{"Workload":"sobel","Config":%s}}`,
		harness.ResultsVersion, config)
}

// hostileBodies are requests no configuration of their workload can run:
// LUTs and caches past harness.MaxSizeKB, truncation overrides that do
// not hold one entry per region (sobel has one; "AAAAAAAAAAAAAAAA" is
// twelve zero bytes in base64), and an unknown mode.
var hostileBodies = []struct{ name, route, body string }{
	{"simulate l1 2^44 KB", "/v1/simulate", `{"benchmark":"sobel","l1_kb":17592186044416}`},
	{"simulate l1 past cap", "/v1/simulate", `{"benchmark":"sobel","l1_kb":32768}`},
	{"simulate l2 past cap", "/v1/simulate", `{"benchmark":"sobel","l2_kb":32768}`},
	{"cells 12 trunc entries", "/v1/cells", cellBody(`{"Mode":1,"Trunc":"AAAAAAAAAAAAAAAA"}`)},
	{"cells empty trunc", "/v1/cells", cellBody(`{"Mode":1,"Trunc":""}`)},
	{"cells l1 2^44 KB", "/v1/cells", cellBody(`{"Mode":1,"L1KB":17592186044416}`)},
	{"cells shared l2 past cap", "/v1/cells", cellBody(`{"Mode":1,"TotalL2CacheKB":32768}`)},
	{"cells unknown mode", "/v1/cells", cellBody(`{"Mode":7}`)},
}

// TestHostileCellConfigs: a hostile configuration answers 400 on both
// cell routes, before it takes a slot, instead of panicking the
// daemon on the cell's goroutine; the daemon then still answers
// /healthz.
func TestHostileCellConfigs(t *testing.T) {
	ts := httptest.NewServer(New(Config{Suite: testSuite(t, "")}).Handler())
	defer ts.Close()
	for _, tc := range hostileBodies {
		resp, err := http.Post(ts.URL+tc.route, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after hostile cells: %d, want 200", code)
	}
}

// runOneCycle runs c as a shard would, halted on its first simulated
// cycle: that builds the whole simulator, so a configuration a route
// accepts but cannot build shows up as a panic.  Errors are answers.
func runOneCycle(t *testing.T, c harness.SweepCell) {
	t.Helper()
	w, err := workloads.ByName(c.Workload)
	if err != nil {
		t.Fatalf("accepted cell of unknown workload %q", c.Workload)
	}
	cfg := c.Config
	if c.Baseline {
		cfg = harness.Baseline()
	}
	cfg.Scale = 1
	cfg.MaxCycles = 1
	harness.Run(w, cfg) //nolint:errcheck // an error is a 500, not a crash
}

// FuzzCellBody covers /v1/cells request decoding and checking: no body
// panics, and every cell the route accepts runs for one cycle without
// panicking.
func FuzzCellBody(f *testing.F) {
	for _, tc := range hostileBodies {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(cellBody(`{"Mode":1,"L1KB":8,"L2KB":512}`)))
	f.Add([]byte(cellBody(`{"Mode":1,"Trunc":"AA=="}`)))
	f.Add([]byte(cellBody(`{"Mode":2}`)))
	f.Add([]byte(cellBody(`{"Mode":3,"TotalL2CacheKB":512}`)))
	f.Add([]byte(fmt.Sprintf(`{"results_version":%d,"scale":1,"cell":{"Workload":"fft","Baseline":true}}`,
		harness.ResultsVersion)))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req cluster.CellRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/cells", bytes.NewReader(body))
		if decodeBody(httptest.NewRecorder(), r, &req) != nil ||
			req.Version != harness.ResultsVersion || req.Scale != 1 || checkCell(req.Cell) != nil {
			return
		}
		runOneCycle(t, req.Cell)
	})
}

// TestRetryAfterAdmission: a shed request's 429 carries a well-formed
// Retry-After, and a client that actually waits that long is admitted
// once the server is idle again.
func TestRetryAfterAdmission(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite, Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only slot out-of-band, queue one waiter, then overflow.
	srv.sweepC.sem <- struct{}{}
	waiter := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/figures/ABL-RATE")
		if err != nil {
			waiter <- -1
			return
		}
		resp.Body.Close()
		waiter <- resp.StatusCode
	}()
	for i := 0; srv.sweepC.waiting.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/figures/ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 0 {
		t.Fatalf("Retry-After %q is not well-formed delta-seconds", ra)
	}

	// Let the queued request through and drain to idle.
	<-srv.sweepC.sem
	if code := <-waiter; code != http.StatusOK {
		t.Fatalf("queued request finished with %d", code)
	}
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}

	// A client that honored the advertised wait is admitted.
	time.Sleep(time.Duration(secs) * time.Second)
	resp, err = http.Get(ts.URL + "/v1/figures/ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-wait request: %d, want admission", resp.StatusCode)
	}
}

// FuzzStorePut drives the replica-write route, PUT
// /v1/store/cells/{key}, of a daemon whose store has no directory with
// arbitrary keys and bodies.  No input may panic.  Every input either
// answers 4xx, or 204 after storing a payload that a later GET of the
// key returns under the checksum the body claimed.
func FuzzStorePut(f *testing.F) {
	key := store.KeyOf("fuzz", "cell").String()
	// put keeps result's bytes as written: json.Marshal would compact them.
	put := func(result string) []byte {
		sum := sha256.Sum256([]byte(result))
		return []byte(fmt.Sprintf(`{"results_version":%d,"key":%q,"result_sha256":"%x","result":%s}`,
			harness.ResultsVersion, key, sum, result))
	}
	f.Add(key, put(`{"Cycles":1}`))
	f.Add(key, put(`{"Cycles": 1}`))
	f.Add(key, put(`"<&>"`))
	f.Add(key, put(`null`))
	f.Add(key[:10], put(`{}`))
	f.Add(store.KeyOf("other").String(), put(`{}`))
	f.Add(key, []byte(`{"results_version":1,"result_sha256":"","result":`))
	f.Add(key, []byte(`{"results_version":99}`))
	f.Add("a/b", []byte(`{}`))

	srv := New(Config{Suite: harness.NewSuite(1)})
	// The handlers are called directly, as the mux calls them, so keys
	// the mux would redirect or split ("..", "a/b") still reach them.
	call := func(handle http.HandlerFunc, method, key string, body []byte) *httptest.ResponseRecorder {
		r := httptest.NewRequest(method, "/v1/store/cells/k", bytes.NewReader(body))
		r.SetPathValue("key", key)
		rec := httptest.NewRecorder()
		handle(rec, r)
		return rec
	}
	f.Fuzz(func(t *testing.T, key string, body []byte) {
		rec := call(srv.handleStorePut, http.MethodPut, key, body)
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			return
		case rec.Code != http.StatusNoContent:
			t.Fatalf("PUT %q %q: status %d: %s", key, body, rec.Code, rec.Body)
		}
		var w cluster.ReplicaWrite
		if err := json.Unmarshal(body, &w); err != nil {
			t.Fatalf("PUT %q stored an undecodable body %q", key, body)
		}
		get := call(srv.handleStoreGet, http.MethodGet, key, nil)
		var resp cluster.CellResponse
		if get.Code != http.StatusOK || json.Unmarshal(get.Body.Bytes(), &resp) != nil {
			t.Fatalf("GET %q after a stored PUT: status %d: %s", key, get.Code, get.Body)
		}
		sum := sha256.Sum256(resp.Result)
		if resp.SHA256 != w.SHA256 || hex.EncodeToString(sum[:]) != w.SHA256 {
			t.Fatalf("PUT %q of %q claimed checksum %s; GET returned %q under %s",
				key, w.Result, w.SHA256, resp.Result, resp.SHA256)
		}
	})
}
