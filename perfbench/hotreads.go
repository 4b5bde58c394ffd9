package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
)

// hot_reads: one daemon wired as `axmemod -store-dir D` wires it serves
// POST /v1/simulate requests drawn zipf s=1.3 from axload's hot-key
// population (10 benchmarks × l1_kb 4/8/16 = 30 cells), all warm-filled
// during set-up, so every timed request is an in-memory cell-cache hit:
// HTTP decode/encode, admission and the cell cache do the work.
//
// The window alternates two kinds of slice over 2 connections:
//
//   - reference slices, open loop at refRate: arrivals are due at fixed
//     intervals, each is timed from its due time, and a connection that
//     is idle before an arrival is due waits for it on a punctual timer;
//   - capacity slices, closed loop: both connections send back to back,
//     and the slice's completed requests per second is the capacity.
//
// Alternating spreads both over the whole run.  Latency percentiles are
// the lower quartile over the reference slices of each slice's value,
// capacity the upper quartile over the capacity slices: tails the
// system causes (GC, queueing) recur every second and stay in every
// slice, while interference from other tenants of a shared host comes
// in stretches of seconds and would otherwise decide the run.  An
// untraced run also times the host-speed reference kernel between
// pairs of slices and carries each pair's numbers to the run's median
// host speed (calib.go) before taking the quartiles.

var hotBenchmarks = []string{
	"sobel", "fft", "kmeans", "blackscholes", "jpeg",
	"inversek2j", "jmeint", "hotspot", "srad", "lavamd",
}

const (
	hotConns = 2
	// refRate is the reference slices' requests/s, under a third of
	// capacity.  A lower rate leaves the vCPUs idle longer between
	// requests, and in slow stretches of the shared host waking them
	// costs more: at 2000 req/s the median rose to 0.7 ms in runs whose
	// capacity was 10–12k req/s, where at 3000 req/s it stayed at
	// 0.25–0.27 ms.
	refRate      = 3000.0
	refSlice     = 600 * time.Millisecond
	capSlice     = 900 * time.Millisecond
	capDraws     = 60000.0                // requests drawn per second of a capacity slice, above any capacity seen
	abortBacklog = 250 * time.Millisecond // an arrival this late means a runaway backlog
	hotSetups    = 3                      // daemons built to time set-up; the last serves
)

// identityProbe are request pairs whose second answer the cell cache
// gets wrong: it keys cells by {workload, config name}, and
// guard_budget and max_cycles change a run without changing its name.
var identityProbe = []simReq{
	{Benchmark: "sobel", GuardBudget: 0.0001},
	{Benchmark: "sobel"},
	{Benchmark: "fft", MaxCycles: 1000},
	{Benchmark: "fft"},
}

type hotRun struct {
	o       opts
	r       *report
	cells   []cell
	refs    []reference
	client  *http.Client
	seed    maphash.Seed
	mu      sync.Mutex
	verdict map[answerKey]*answer // every distinct answer, checked once
	errs    int                   // check failures logged so far
	samples []sample              // scratch for drive
	keys    []answerKey
}

// answerKey identifies a distinct served answer.
type answerKey struct {
	cell   int
	status int
	hash   uint64
}

// answer is the verdict on one distinct answer.  wrong marks a 2xx
// that failed its check; a refusal or error is a failure, not a wrong
// answer.
type answer struct {
	err    error
	wrong  bool
	cached bool
}

func hotReads(o opts, r *report) error {
	h := &hotRun{o: o, r: r, client: loadClient(), seed: maphash.MakeSeed(),
		verdict: map[answerKey]*answer{}}
	for _, l1 := range []int{4, 8, 16} {
		for _, b := range hotBenchmarks {
			c, err := newCell(simReq{Benchmark: b, L1KB: l1})
			if err != nil {
				return err
			}
			h.cells = append(h.cells, c)
		}
	}

	var tl *spanLog
	if o.trace {
		tl = newSpanLog()
	}
	var n *node
	var setups []float64
	for i := 0; i < hotSetups; i++ {
		if n != nil {
			h.client.CloseIdleConnections()
			n.stop() //nolint:errcheck // only its set-up time is kept
		}
		var err error
		var d time.Duration
		if n, d, err = h.startDaemon(i, tl); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		h.client.CloseIdleConnections()
		n.stop() //nolint:errcheck // teardown after measurement
	}()

	// References: a direct harness.Run of every hot cell, outside any
	// timed window.
	h.refs = make([]reference, len(h.cells))
	for i, c := range h.cells {
		if h.refs[i] = runReference(c.req); h.refs[i].err != nil {
			return fmt.Errorf("reference run %s: %w", c.body, h.refs[i].err)
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(len(h.cells)-1))
	draw := func(n int) []int {
		seq := make([]int, n)
		for i := range seq {
			seq[i] = int(zipf.Uint64())
		}
		return seq
	}

	slices := max(int(o.window/(refSlice+capSlice)), 2)
	refN := int(refRate * refSlice.Seconds())
	if !o.trace {
		// The host-speed reference kernel is timed before every pair of
		// slices and after the last, while the daemon is idle.
		b := &bracket{ref: o.ref}
		var ref sliceSet
		var rates []float64
		for i := 0; i < slices; i++ {
			if err := b.tick(); err != nil {
				return err
			}
			s, err := h.drive(n.url, refRate, draw(refN), nil, 0)
			if err != nil {
				return err
			}
			ref.add(h, s)
			if s, err = h.drive(n.url, 0, draw(int(capDraws*capSlice.Seconds())), nil, capSlice); err != nil {
				return err
			}
			h.account(s)
			rates = append(rates, s.achieved())
			b.add()
		}
		if err := b.tick(); err != nil {
			return err
		}
		for i := range ref.pct {
			ref.pct[i] = b.carry(ref.pct[i], false)
		}
		rates = b.carry(rates, true)
		pct := ref.percentiles()
		r.set("p50_ms", pct[0], "ms")
		r.set("cells_per_s", quantile(rates, 0.75), "1/s")
		r.set("setup_s", median(setups), "s")
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		fmt.Fprintf(o.log, "hot_reads: %d reference slices at %.0f/s: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; capacity %.0f/s (slices %.0f)\n",
			slices, refRate, pct[0], pct[1], pct[2], quantile(rates, 0.75), rates)
	} else {
		// Untraced and traced reference slices alternate.
		var plain, traced sliceSet
		g := readGoStats()
		for i := 0; i < slices; i++ {
			s, err := h.drive(n.url, refRate, draw(refN), nil, 0)
			if err != nil {
				return err
			}
			plain.add(h, s)
			if s, err = h.drive(n.url, refRate, draw(refN), tl, 0); err != nil {
				return err
			}
			traced.add(h, s)
		}
		g.report(r, 2*slices*refN)
		r.set("driver.lag_ms.p50", quantile(plain.lag, 0.5), "ms")
		r.set("driver.lag_ms.p99", quantile(plain.lag, 0.99), "ms")
		pp, tp := plain.percentiles(), traced.percentiles()
		tails(r, pp)
		overhead(r, pp, tp, plain.achieved(), traced.achieved())
		r.set("harness.cached_share", float64(traced.cached)/float64(traced.n), "ratio")
		if err := h.layers(tl, n); err != nil {
			return err
		}
	}
	wrong, err := h.identityProbe(n.url)
	if err != nil {
		return err
	}
	if o.trace {
		r.set("server.identity_mismatches", float64(wrong), "count")
		return writeSpans(tl, "hot_reads", o)
	}
	return nil
}

// startDaemon builds one daemon and warm-fills the hot population over
// the two connections, returning the set-up time.
func (h *hotRun) startDaemon(i int, tl *spanLog) (*node, time.Duration, error) {
	start := time.Now()
	no := nodeOpts{storeDir: filepath.Join(h.o.workDir, fmt.Sprintf("hot-%d", i))}
	if tl != nil {
		no.wrap = func(n *node, hd http.Handler) http.Handler {
			depth := n.sink.Reg().NewGauge("server_queue_depth", obs.Opts{})
			return traceHandler(tl, "server.handler", "client", func() { tl.noteDepth(depth.Value()) }, hd)
		}
	}
	n, err := startNode(no)
	if err != nil {
		return nil, 0, err
	}
	var next atomic.Int64
	errs := make(chan error, hotConns)
	for w := 0; w < hotConns; w++ {
		go func() {
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(h.cells) {
					errs <- nil
					return
				}
				status, err := post(h.client, n.url, h.cells[i].body, 0, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm fill %s: status %d", h.cells[i].body, status)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for w := 0; w < hotConns; w++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		n.stop() //nolint:errcheck
		return nil, 0, err
	}
	return n, time.Since(start), nil
}

// sample is one timed request.
type sample struct {
	lat  time.Duration // from its due time to its answer
	end  time.Duration // answer time since the window began
	ans  *answer       // nil: no answer (transport error)
	sent bool
}

// stepResult is one slice of load.
type stepResult struct {
	samples []sample
	lag     []float64 // ms an idle connection's wake-up ran past the due time
	span    time.Duration
}

// achieved is the completed request rate over the window.
func (s stepResult) achieved() float64 {
	if s.span <= 0 {
		return 0
	}
	return float64(len(s.samples)) / s.span.Seconds()
}

// drive sends seq over the two connections, then checks every answer.
// With rate > 0 it is open loop: arrival i is due at i/rate, and one
// found more than abortBacklog late ends the slice (a runaway backlog),
// and the arrivals left unsent count as failed.
// With rate 0 it is closed loop for closedFor: each connection sends
// its next request as soon as the last is answered, timed from its
// send.  Samples go to the run's scratch arrays.
func (h *hotRun) drive(url string, rate float64, seq []int, tl *spanLog, closedFor time.Duration) (stepResult, error) {
	var period time.Duration
	if rate > 0 {
		period = time.Duration(float64(time.Second) / rate)
	}
	samples, keys := h.scratch(len(seq))
	lags := make([][]float64, hotConns)
	bodies := make([]map[answerKey][]byte, hotConns)
	errs := make([]error, hotConns)
	var next atomic.Int64
	var abort atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	if rate > 0 {
		t0 = t0.Add(5 * time.Millisecond) // room to start both connections
	}
	for w := 0; w < hotConns; w++ {
		bodies[w] = map[answerKey][]byte{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pc, err := newPacer()
			if err != nil {
				errs[w] = err
				return
			}
			defer pc.Close()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) || abort.Load() {
					return
				}
				due := t0.Add(time.Duration(i) * period)
				if rate == 0 {
					if due = time.Now(); due.Sub(t0) > closedFor {
						return
					}
				} else if now := time.Now(); now.Before(due) {
					lag, err := pc.sleepUntil(due)
					if err != nil {
						errs[w] = err
						return
					}
					lags[w] = append(lags[w], ms(lag))
				} else if now.Sub(due) > abortBacklog {
					abort.Store(true)
					return
				}
				var req uint64
				var root openSpan
				if tl != nil {
					req = uint64(i + 1)
					root = tl.root("client.request", req, "", w)
				}
				status, err := post(h.client, url, h.cells[seq[i]].body, req, &buf)
				end := time.Now()
				root.finish()
				k := answerKey{cell: seq[i], status: -1}
				if err == nil {
					k.status, k.hash = status, maphash.Bytes(h.seed, buf.Bytes())
					if _, ok := bodies[w][k]; !ok {
						bodies[w][k] = bytes.Clone(buf.Bytes())
					}
				}
				samples[i] = sample{lat: end.Sub(due), end: end.Sub(t0), sent: true}
				keys[i] = k
			}
		}(w)
	}
	wg.Wait()
	var res stepResult
	for w := range errs {
		if errs[w] != nil {
			return res, errs[w]
		}
		res.lag = append(res.lag, lags[w]...)
	}
	for i, s := range samples {
		if !s.sent {
			if rate == 0 {
				continue // the unused tail of a closed-loop slice
			}
			// An arrival the backlog kept from being sent: failed.
			s = sample{lat: failLatency, end: time.Duration(i) * period}
		}
		if k := keys[i]; k.status != -1 {
			var body []byte
			for _, b := range bodies {
				if body == nil {
					body = b[k]
				}
			}
			s.ans = h.check(k, body)
		}
		res.samples = append(res.samples, s)
		res.span = max(res.span, s.end)
	}
	return res, nil
}

// scratch returns zeroed sample and key arrays of length n, reusing the
// run's: the heap the benchmark itself keeps stays the same from slice
// to slice and run to run.
func (h *hotRun) scratch(n int) ([]sample, []answerKey) {
	if cap(h.samples) < n {
		h.samples, h.keys = make([]sample, n), make([]answerKey, n)
	}
	s, k := h.samples[:n], h.keys[:n]
	clear(s)
	clear(k)
	return s, k
}

// check returns the verdict on one distinct answer, checking it the
// first time it is seen: the requested cell's store key and a result
// equal to a direct harness.Run of its config.
func (h *hotRun) check(k answerKey, body []byte) *answer {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.verdict[k]
	if !ok {
		got, err := checkAnswer(h.cells[k.cell], k.status, body, &h.refs[k.cell], false)
		a = &answer{err: err, wrong: err != nil && k.status/100 == 2, cached: got.Cached}
		h.verdict[k] = a
	}
	return a
}

// account adds a slice's samples to the report: a request never sent
// or never answered, a non-2xx and a wrong answer are failed operations
// and count at failLatency; a wrong answer also makes the run
// incorrect.
func (h *hotRun) account(s stepResult) []float64 {
	out := make([]float64, len(s.samples))
	for i, smp := range s.samples {
		out[i] = ms(smp.lat)
		if smp.ans == nil || smp.ans.err != nil {
			out[i] = ms(failLatency)
			h.r.Failed++
			if smp.ans != nil && smp.ans.wrong {
				h.r.Correct = false
			}
			h.logFailure(smp.ans)
		}
	}
	h.r.Attempted += len(s.samples)
	return out
}

// sliceSet keeps what the reports need from a run of reference slices:
// each slice's p50, p90 and p99, and totals.
type sliceSet struct {
	pct    [3][]float64
	lag    []float64
	n      int
	cached int
	span   time.Duration
}

// add accounts one slice and keeps its numbers.
func (ss *sliceSet) add(h *hotRun, s stepResult) {
	ts := h.account(s)
	for i, q := range []float64{0.5, 0.9, 0.99} {
		ss.pct[i] = append(ss.pct[i], quantile(ts, q))
	}
	ss.lag = append(ss.lag, s.lag...)
	ss.n += len(s.samples)
	ss.span += s.span
	for _, smp := range s.samples {
		if smp.ans != nil && smp.ans.cached {
			ss.cached++
		}
	}
}

// percentiles returns p50, p90 and p99, each the lower quartile over
// the slices of the slice's value.  A slice holds refSlice of arrivals
// (1800 at the reference rate, eighteen beyond its p99).
func (ss *sliceSet) percentiles() []float64 {
	out := make([]float64, len(ss.pct))
	for i, v := range ss.pct {
		out[i] = quantile(v, 0.25)
	}
	return out
}

// achieved is the completed request rate over the slices.
func (ss *sliceSet) achieved() float64 { return float64(ss.n) / ss.span.Seconds() }

func (h *hotRun) logFailure(a *answer) {
	if h.errs++; h.errs > 5 {
		return
	}
	if a == nil {
		fmt.Fprintln(h.o.log, "hot_reads: a request was not sent or not answered")
		return
	}
	fmt.Fprintln(h.o.log, "hot_reads:", a.err)
}

// identityProbe sends the known-defect request pairs on the daemon
// after the timed windows and returns how many answers differ from a
// direct harness.Run of their own config.  The mismatches are a defect
// of the cell cache, not of the workload's own stream, so they are
// reported apart from the result's failed count: on stderr in every
// run and as server.identity_mismatches in traced runs.  The fix (key
// the cell cache by the store key) is its own change.
func (h *hotRun) identityProbe(url string) (int, error) {
	var buf bytes.Buffer
	wrong := 0
	for _, q := range identityProbe {
		c, err := newCell(q)
		if err != nil {
			return 0, err
		}
		status, err := post(h.client, url, c.body, 0, &buf)
		if err != nil {
			return 0, fmt.Errorf("identity probe %s: %w", c.body, err)
		}
		ref := runReference(q)
		if _, err := checkAnswer(c, status, buf.Bytes(), &ref, false); err != nil {
			wrong++
			fmt.Fprintln(h.o.log, "hot_reads: identity probe:", err)
		}
	}
	fmt.Fprintf(h.o.log, "hot_reads: identity probe: %d of %d answers differ from a direct run of their own config\n",
		wrong, len(identityProbe))
	return wrong, nil
}

// layers reports hot_reads' per-layer metrics from the traced window.
func (h *hotRun) layers(tl *spanLog, n *node) error {
	spans, kids := tl.snapshot()
	handler := durMS(spans, "server.handler")
	h.r.set("server.handler_ms.p50", quantile(handler, 0.5), "ms")
	h.r.set("server.handler_ms.p99", quantile(handler, 0.99), "ms")
	h.r.set("net.ms.p50", median(selfMS(spans, kids, "client.request")), "ms")
	snap := n.snapshot()
	rejected := 0.0
	for _, code := range []string{"429", "504"} {
		rejected += snap.Family("server_requests_total").SumValues(map[string]string{"route": "simulate", "code": code})
	}
	h.r.set("server.rejected", rejected, "count")
	h.r.set("server.queue_depth.max", tl.maxDepth(), "count")
	var hot []harness.SweepCell
	for _, c := range h.cells {
		cfg, err := c.req.config()
		if err != nil {
			return err
		}
		hot = append(hot, harness.SweepCell{Workload: c.req.Benchmark, Config: cfg})
	}
	if err := hitProbe(tl, h.r, n.suite, hot, h.o.seed); err != nil {
		return err
	}
	return layerProbes(tl, h.r)
}
