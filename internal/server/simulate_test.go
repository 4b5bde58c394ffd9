package server

// Tests for the /v1/simulate answer path: the cell cache is keyed by
// the store key, a hit is a copy of the cell's canonical result bytes,
// and request bodies hold exactly one JSON value.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"axmemo/internal/harness"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

// postRaw posts v to /v1/simulate and returns the status and raw body.
func postRaw(t *testing.T, base string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// directRun resolves req like the server and runs it with harness.Run,
// returning its store key and the canonical encoding of its result.
func directRun(t *testing.T, req simulateRequest) (store.Key, []byte, error) {
	t.Helper()
	cell, err := req.cell()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cell.Config
	if cell.Baseline {
		cfg = harness.Baseline()
	}
	cfg.Scale = 1
	w, err := workloads.ByName(req.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	key := harness.CellStoreKey(req.Benchmark, cfg)
	res, err := harness.Run(w, cfg)
	if err != nil {
		return key, nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return key, b, nil
}

// rawAnswer is a /v1/simulate answer with its result left encoded.
type rawAnswer struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// TestSimulateIdentity replays the identity probe on one server: knobs
// that leave a config's name unchanged (guard_budget, max_cycles) still
// select a cell of their own, so each answer matches a direct run of
// its own config — a result, or the run's error.
func TestSimulateIdentity(t *testing.T) {
	suite := testSuite(t, "")
	ts := httptest.NewServer(New(Config{Suite: suite}).Handler())
	defer ts.Close()

	for _, req := range []simulateRequest{
		{Benchmark: "sobel", GuardBudget: 0.0001},
		{Benchmark: "sobel"},
		{Benchmark: "fft", MaxCycles: 1000},
		{Benchmark: "fft"},
	} {
		key, want, runErr := directRun(t, req)
		code, body := postRaw(t, ts.URL, req)
		var got rawAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%+v: undecodable answer %q: %v", req, body, err)
		}
		if runErr != nil {
			if code != http.StatusInternalServerError || got.Error != runErr.Error() {
				t.Errorf("%+v: status %d %q, want 500 %q", req, code, got.Error, runErr)
			}
			continue
		}
		if code != http.StatusOK {
			t.Errorf("%+v: status %d: %s", req, code, body)
			continue
		}
		if got.Key != key.String() {
			t.Errorf("%+v: key %.16s, want %.16s", req, got.Key, key.String())
		}
		// Compared whitespace-free: the wire format is
		// TestSimulateHitBytes' concern, identity is this test's.
		var result bytes.Buffer
		if err := json.Compact(&result, got.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(result.Bytes(), want) {
			t.Errorf("%+v: result differs from a direct run of its config", req)
		}
	}
}

// TestSimulateHitBytes: a miss and a hit for one cell are compact, agree
// on everything but cached, and carry the result's canonical bytes —
// those of a direct run and of the store blob's payload.
func TestSimulateHitBytes(t *testing.T) {
	suite := testSuite(t, t.TempDir())
	ts := httptest.NewServer(New(Config{Suite: suite}).Handler())
	defer ts.Close()

	req := simulateRequest{Benchmark: "blackscholes", L1KB: 4}
	key, want, err := directRun(t, req)
	if err != nil {
		t.Fatal(err)
	}
	var answers [2]simulateResponse
	for i, wantCached := range []bool{false, true} {
		code, body := postRaw(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("answer %d: status %d: %s", i, code, body)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(compact.Bytes(), '\n'), body) {
			t.Fatalf("answer %d is not compact JSON:\n%s", i, body)
		}
		var raw rawAnswer
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		if raw.Cached != wantCached {
			t.Fatalf("answer %d: cached %v, want %v", i, raw.Cached, wantCached)
		}
		if raw.Key != key.String() {
			t.Fatalf("answer %d: key %.16s, want %.16s", i, raw.Key, key.String())
		}
		if !bytes.Equal(raw.Result, want) {
			t.Fatalf("answer %d: result bytes differ from a direct run:\n%s\nvs\n%s", i, raw.Result, want)
		}
		if err := json.Unmarshal(body, &answers[i]); err != nil {
			t.Fatal(err)
		}
	}
	answers[0].Cached = true
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Fatalf("miss and hit differ beyond cached:\n%+v\nvs\n%+v", answers[0], answers[1])
	}
	var blob json.RawMessage
	if !suite.Store.Get(key, &blob) {
		t.Fatal("cell missing from the store")
	}
	if !bytes.Equal(blob, want) {
		t.Fatal("store payload differs from the served result bytes")
	}
}

// TestSimulateFirstRunRace races 8 requests at a cell's first execution
// (run under -race): every one answers 200 with identical result bytes,
// and exactly one of them ran the simulation.
func TestSimulateFirstRunRace(t *testing.T) {
	const n = 8
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite, Workers: n})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		codes   [n]int
		answers [n]rawAnswer
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var body []byte
			codes[i], body = postRaw(t, ts.URL, simulateRequest{Benchmark: "blackscholes"})
			if err := json.Unmarshal(body, &answers[i]); err != nil {
				t.Errorf("request %d: undecodable answer %q", i, body)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	fresh := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(answers[i].Result, answers[0].Result) {
			t.Fatalf("request %d: result bytes differ from request 0", i)
		}
		if !answers[i].Cached {
			fresh++
		}
	}
	if fresh != 1 || execCount(suite) != 1 {
		t.Fatalf("%d fresh answers and %d executions, want 1 and 1", fresh, execCount(suite))
	}
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// decodeSimulate runs decodeBody on a /v1/simulate body.
func decodeSimulate(body []byte) (simulateRequest, error) {
	var q simulateRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
	err := decodeBody(httptest.NewRecorder(), r, &q)
	return q, err
}

// trailingData reports whether body starts with a complete JSON value
// that is followed by anything but whitespace.
func trailingData(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
}

// FuzzSimulateBody covers request decoding, cell resolution and key
// derivation of /v1/simulate: decoding never panics, a body with data
// after its JSON value is always rejected, an accepted request
// re-marshalled and resolved again keeps its key, and every accepted
// cell runs for one cycle without panicking.
func FuzzSimulateBody(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark":"sobel","guard_budget":0.0001}`,
		`{"benchmark":"sobel"}`,
		`{"benchmark":"fft","max_cycles":1000}`,
		`{"benchmark":"fft"}`,
		`{"benchmark":"fft"}{"benchmark":"sobel"}`,
		`{"benchmark":"fft"} garbage`,
	} {
		f.Add([]byte(seed))
	}
	for _, l1 := range []int{4, 8, 16} {
		for _, b := range []string{"sobel", "fft", "kmeans", "blackscholes", "jpeg",
			"inversek2j", "jmeint", "hotspot", "srad", "lavamd"} {
			f.Add([]byte(fmt.Sprintf(`{"benchmark":%q,"l1_kb":%d}`, b, l1)))
		}
	}
	for _, tc := range hostileBodies {
		if tc.route == "/v1/simulate" {
			f.Add([]byte(tc.body))
		}
	}
	suite := harness.NewSuite(1)
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := decodeSimulate(body)
		if err == nil && trailingData(body) {
			t.Fatalf("accepted a body with data after its JSON value: %q", body)
		}
		if err != nil {
			return
		}
		cell, err := q.cell()
		if err != nil {
			return
		}
		again, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("re-marshal %+v: %v", q, err)
		}
		q2, err := decodeSimulate(again)
		if err != nil {
			t.Fatalf("re-marshalled request %s rejected: %v", again, err)
		}
		cell2, err := q2.cell()
		if err != nil {
			t.Fatalf("re-marshalled request %s does not resolve: %v", again, err)
		}
		if suite.CellKey(cell) != suite.CellKey(cell2) {
			t.Fatalf("key of %q changed after a re-marshal to %s", body, again)
		}
		runOneCycle(t, cell)
	})
}
