package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety drives every entry point through nil receivers: a
// disabled sink must be usable with no conditionals at the call sites.
func TestNilSafety(t *testing.T) {
	var s *Sink
	r := s.Reg()
	if r != nil {
		t.Fatal("nil sink returned a registry")
	}
	r.NewCounter("c", Opts{}).Inc()
	r.NewCounterVec("cv", Opts{}, "k").With("v").Add(3)
	r.NewGauge("g", Opts{}).Set(1.5)
	r.NewGaugeVec("gv", Opts{}, "k").With("v").Add(2)
	r.NewHistogram("h", Opts{}).Observe(7)
	r.NewHistogramVec("hv", Opts{}, "k").With("v").Observe(7)
	if got := string(r.SnapshotJSON(Deterministic)); !strings.Contains(got, `"metrics": []`) {
		t.Fatalf("nil registry snapshot = %q", got)
	}

	tr := s.Tracer()
	tr.Span("a", "b", 0, 0, 0, 1)
	tr.Instant("a", "b", 0, 0, 0)
	tr.NameProcess(1, "x")
	if len(tr.ChromeTraceJSON()) == 0 || len(tr.JSONL()) != 0 {
		t.Fatal("nil tracer export shape")
	}
}

// TestCounterGaugeHistogram checks basic semantics and bucket edges.
func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", Opts{})
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.NewGauge("g", Opts{})
	g.Set(2)
	g.Add(0.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	h := r.NewHistogramVec("h", Opts{Buckets: []float64{2, 4}}, "k").With("v")
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 15 {
		t.Fatalf("histogram count=%d sum=%v, want 5/15", h.Count(), h.Sum())
	}
	// le-semantics: bucket le=2 counts {1,2}, le=4 counts {3,4}, +Inf {5}.
	snap := string(r.SnapshotJSON(Deterministic))
	want := `"buckets": [{"le": 2, "n": 2}, {"le": 4, "n": 2}, {"le": "+Inf", "n": 1}]`
	if !strings.Contains(snap, want) {
		t.Fatalf("snapshot %s\nmissing %s", snap, want)
	}
	// Re-registration returns the same series.
	if r.NewCounter("c", Opts{}) != c {
		t.Fatal("re-registering a counter built a new series")
	}
}

// TestSnapshotDeterministic races concurrent updaters over shared
// series and checks the snapshot bytes are identical across orders,
// and that volatile families only show up in Everything mode.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(workers int) []byte {
		r := NewRegistry()
		r.NewGauge("wall_seconds", Opts{Volatile: true}).Set(123.456)
		cv := r.NewCounterVec("events_total", Opts{Help: "events"}, "kind")
		hv := r.NewHistogramVec("lat", Opts{Buckets: []float64{8, 64}}, "run")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					cv.With("a").Inc()
					cv.With("b").Add(2)
					hv.With("r1").Observe(float64(i % 100))
				}
			}(w)
		}
		wg.Wait()
		return r.SnapshotJSON(Deterministic)
	}
	serial := build(1)
	for _, w := range []int{1, 4} {
		for i := 0; i < 3; i++ {
			got := build(w)
			// Scale the expectation: counters/hist sums are per-worker.
			if w == 1 && !bytes.Equal(got, serial) {
				t.Fatalf("snapshot differs across runs:\n%s\nvs\n%s", serial, got)
			}
		}
	}
	if strings.Contains(string(serial), "wall_seconds") {
		t.Fatal("volatile family leaked into the deterministic snapshot")
	}
	r := NewRegistry()
	r.NewGauge("wall_seconds", Opts{Volatile: true}).Set(1)
	if !strings.Contains(string(r.SnapshotJSON(Everything)), "wall_seconds") {
		t.Fatal("volatile family missing from the Everything snapshot")
	}
}

// TestSnapshotIsValidJSON parses a populated snapshot.
func TestSnapshotIsValidJSON(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("c", Opts{Help: `with "quotes"`}, "lut", "core").With("3", "0").Add(7)
	r.NewGauge("g", Opts{}).Set(0.1)
	r.NewHistogram("h", Opts{}).Observe(3)
	var v struct {
		Schema  int `json:"schema"`
		Metrics []struct {
			Name   string `json:"name"`
			Type   string `json:"type"`
			Series []struct {
				Labels map[string]string `json:"labels"`
			} `json:"series"`
		} `json:"metrics"`
	}
	snap := r.SnapshotJSON(Deterministic)
	if err := json.Unmarshal(snap, &v); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, snap)
	}
	if v.Schema != MetricsSchema || len(v.Metrics) != 3 {
		t.Fatalf("schema=%d metrics=%d", v.Schema, len(v.Metrics))
	}
	if got := v.Metrics[0].Series[0].Labels; got["lut"] != "3" || got["core"] != "0" {
		t.Fatalf("labels = %v", got)
	}
}

// TestTracerDeterministicExport emits events from several goroutines in
// scrambled order and checks both exports are byte-identical to the
// serial emission, and that the Chrome export is structurally valid.
func TestTracerDeterministicExport(t *testing.T) {
	emit := func(tr *Tracer, pid int) {
		tr.NameProcess(pid, fmt.Sprintf("cell-%d", pid))
		tr.Span("simulate", "sim", pid, 0, 0, 1000, "workload", "sobel")
		tr.Instant("guard.disable", "memo", pid, 0, 500, "lut", "1")
	}
	serial := NewTracer()
	for pid := 1; pid <= 4; pid++ {
		emit(serial, pid)
	}
	concurrent := NewTracer()
	var wg sync.WaitGroup
	for pid := 4; pid >= 1; pid-- {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			emit(concurrent, pid)
		}(pid)
	}
	wg.Wait()
	if !bytes.Equal(serial.ChromeTraceJSON(), concurrent.ChromeTraceJSON()) {
		t.Fatal("Chrome export depends on emission order")
	}
	if !bytes.Equal(serial.JSONL(), concurrent.JSONL()) {
		t.Fatal("JSONL export depends on emission order")
	}

	// Structural validation of the Chrome trace-event format.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(serial.ChromeTraceJSON(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 12 {
		t.Fatalf("%d trace events, want 12", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event %v missing required key %q", ev, k)
			}
		}
		ph := ev["ph"].(string)
		switch ph {
		case PhaseComplete:
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event %v missing dur", ev)
			}
		case PhaseInstant, PhaseMeta:
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}

	// JSONL: one valid JSON object per line.
	lines := bytes.Split(bytes.TrimRight(serial.JSONL(), "\n"), []byte("\n"))
	if len(lines) != 12 {
		t.Fatalf("%d JSONL lines, want 12", len(lines))
	}
	for _, ln := range lines {
		var ev map[string]any
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("bad JSONL line %s: %v", ln, err)
		}
	}
}

// TestDebugServer hits /debug/vars and /debug/pprof/ on a live server.
func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("smoke_total", Opts{}).Add(9)
	addr, closeSrv, err := ServeDebug("localhost:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrv()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "axmemo_metrics") || !strings.Contains(vars, "smoke_total") {
		t.Fatalf("/debug/vars missing registry: %.200s", vars)
	}
	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}
}
