// Package server is the HTTP/JSON serving layer of the axmemod daemon
// (stdlib net/http only): simulation requests and asynchronous sweep
// jobs executed against a harness.Suite, which carries the scheduler
// worker pool and the content-addressed result store every finished
// cell lives in — memory-only, or backed by a directory — so repeated
// requests are served from the store instead of recomputed.
//
// Endpoints:
//
//	POST /v1/simulate         run (or serve from the store) one cell
//	POST /v1/sweep            start an async figure sweep -> job ID
//	GET  /v1/jobs/{id}        poll a sweep job
//	GET  /v1/figures          list figure IDs
//	GET  /v1/figures/{name}   render one figure (synchronous)
//	GET  /healthz             liveness
//	GET  /metrics             live obs snapshot (volatile included)
//
// Load rules: identical concurrent work is deduplicated
// singleflight-style (in-flight sweep jobs by figure set, simulations
// by the suite's in-flight map); execution slots are bounded per
// admission class — cheap reads (/v1/simulate, /v1/cells) and
// expensive sweeps (figure renders, sweep jobs) each have their own
// worker and queue budget (see admission.go), so a sweep storm cannot
// starve reads — and requests beyond a class's waiting budget get 429
// instead of an unbounded queue; every synchronous request carries a
// timeout and returns 504 when it expires — the underlying simulation
// keeps running and lands in the store for the retry.  A read for a
// cell whose payload the store holds in memory is answered on the
// request goroutine from those bytes (serveCell).  StartDrain flips
// /healthz to 503 "draining" so cluster probes stop advertising the
// peer, and Drain waits for in-flight work, so SIGTERM shuts the daemon
// down without abandoning accepted jobs.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"axmemo/internal/cluster"
	"axmemo/internal/harness"
	"axmemo/internal/manager"
	"axmemo/internal/obs"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

// Config assembles a Server.
type Config struct {
	// Suite executes the cells and holds the finished ones in its
	// store.  Attach Obs (and a directory store, if any) before
	// constructing the server.  Required.
	Suite *harness.Suite
	// Workers bounds concurrently executing read-class requests
	// (/v1/simulate, /v1/cells; 0 = GOMAXPROCS).  Sweep jobs
	// additionally use the suite's own scheduler pool (Suite.Parallel)
	// for their cells.
	Workers int
	// QueueDepth bounds read-class requests waiting for a slot before
	// new ones are rejected with 429 (0 = 64).
	QueueDepth int
	// SweepWorkers and SweepQueueDepth are the same budgets for the
	// sweep class (figure renders, sweep jobs), kept separate so a
	// sweep storm cannot starve reads (0 = the read-class values).
	SweepWorkers    int
	SweepQueueDepth int
	// RequestTimeout bounds synchronous requests (0 = 5m); expired
	// requests return 504 while the simulation continues into the cache.
	RequestTimeout time.Duration
	// MaxJobs bounds active sweep jobs and retained finished ones
	// (0 = 64).
	MaxJobs int
	// Cluster, if non-nil, is the coordinator whose membership view
	// /healthz reports (coordinator daemons only; shards leave it nil).
	Cluster *cluster.Coordinator
	// Manager, if non-nil, enables the multi-tenant approximation
	// manager: the /v1/tenants API and the managed /v1/simulate path
	// (requests naming a registered tenant).  Nil turns both off;
	// requests under the reserved "default" tenant never touch it.
	Manager *manager.Manager
}

// Server is the HTTP serving layer.  Construct with New, expose with
// Handler, stop with Drain after http.Server.Shutdown.
type Server struct {
	suite   *harness.Suite
	cluster *cluster.Coordinator
	mgr     *manager.Manager
	timeout time.Duration

	readC        *admitClass
	sweepC       *admitClass
	draining     atomic.Bool
	repairing    atomic.Bool
	repairPulled atomic.Int64
	jobs         *jobSet
	wg           sync.WaitGroup
	mux          *http.ServeMux
	m            metrics
}

// metrics are the server's obs families (all nil-safe; wall-clock
// latency is Volatile to preserve the deterministic-snapshot rule).
type metrics struct {
	requests   *obs.CounterVec // route, code
	admission  *obs.CounterVec // route, verdict
	queueDepth *obs.Gauge
	jobSecs    *obs.Histogram
	jobsTotal  *obs.CounterVec // state
}

// New builds a server over the suite.
func New(cfg Config) *Server {
	if cfg.Suite == nil {
		panic("server: Config.Suite is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := cfg.QueueDepth
	if queue <= 0 {
		queue = 64
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	sweepWorkers := cfg.SweepWorkers
	if sweepWorkers <= 0 {
		sweepWorkers = workers
	}
	sweepQueue := cfg.SweepQueueDepth
	if sweepQueue <= 0 {
		sweepQueue = queue
	}
	s := &Server{
		suite:   cfg.Suite,
		cluster: cfg.Cluster,
		mgr:     cfg.Manager,
		timeout: timeout,
		readC:   newAdmitClass("read", workers, queue),
		sweepC:  newAdmitClass("sweep", sweepWorkers, sweepQueue),
		jobs:    newJobSet(cfg.MaxJobs),
		mux:     http.NewServeMux(),
	}
	if reg := cfg.Suite.Obs.Reg(); reg != nil {
		s.m = metrics{
			requests: reg.NewCounterVec("server_requests_total",
				obs.Opts{Help: "HTTP requests by route and status code"}, "route", "code"),
			admission: reg.NewCounterVec("server_admission_total",
				obs.Opts{Help: "admission decisions by route and verdict (accepted, rejected, timeout)"}, "route", "verdict"),
			queueDepth: reg.NewGauge("server_queue_depth",
				obs.Opts{Help: "requests waiting for an execution slot", Volatile: true}),
			jobSecs: reg.NewHistogram("server_job_seconds",
				obs.Opts{Help: "sweep job wall time", Volatile: true,
					Buckets: []float64{0.01, 0.1, 0.5, 1, 5, 15, 60, 300, 1800}}),
			jobsTotal: reg.NewCounterVec("server_jobs_total",
				obs.Opts{Help: "sweep jobs by final state"}, "state"),
		}
	}
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/cells", s.handleCell)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/figures", s.handleFigureList)
	s.mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenantList)
	s.mux.HandleFunc("PUT /v1/tenants/{id}", s.handleTenantPut)
	s.mux.HandleFunc("GET /v1/store/manifest", s.handleManifest)
	s.mux.HandleFunc("GET /v1/store/cells/{key}", s.handleStoreGet)
	s.mux.HandleFunc("PUT /v1/store/cells/{key}", s.handleStorePut)
}

// Handler returns the server's root handler, wrapped with per-route
// status-code accounting.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		s.m.requests.With(routeLabel(r.URL.Path), strconv.Itoa(rec.code)).Inc()
	})
}

// StartDrain marks the server as draining: /healthz answers 503 with
// status "draining" from here on, so cluster probes demote the peer
// and stop routing cells to it.  Call before http.Server.Shutdown —
// keep-alive connections are still served during Shutdown, and until
// the listener actually closes a probe would otherwise keep seeing a
// healthy peer.  Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// StartRepair marks the server as running its rejoin repair: /healthz
// answers 503 with status "repairing" until FinishRepair, so cluster
// probes keep this peer out of replica sets while its store catches up
// on the cells it missed.  Every other endpoint keeps serving —
// repair gates re-admission, not availability.
func (s *Server) StartRepair() { s.repairing.Store(true) }

// FinishRepair ends the repair window, recording how many cells the
// pass pulled (reported on /healthz as repair_pulled from then on).
func (s *Server) FinishRepair(pulled int) {
	s.repairPulled.Add(int64(pulled))
	s.repairing.Store(false)
}

// Drain blocks until in-flight work (sweep jobs, simulations that
// outlived their request) finishes, or ctx expires.  Call after
// http.Server.Shutdown has stopped new requests.  Implies StartDrain.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// routeLabel folds request paths onto a bounded label set, so path
// parameters (job IDs) cannot explode the metric's cardinality.
func routeLabel(path string) string {
	switch {
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	case path == "/v1/simulate":
		return "simulate"
	case path == "/v1/cells":
		return "cells"
	case path == "/v1/sweep":
		return "sweep"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "jobs"
	case strings.HasPrefix(path, "/v1/tenants"):
		return "tenants"
	case strings.HasPrefix(path, "/v1/figures"):
		return "figures"
	case strings.HasPrefix(path, "/v1/store/"):
		return "store"
	default:
		return "other"
	}
}

// handleHealthz answers liveness plus the compatibility facts peers
// need before exchanging cells: the ResultsVersion every store key is
// derived from (version skew = keys that can never match) and the
// store's population.  A store without a directory is not degraded; a
// degraded directory store or cluster flips the status string but
// never the 200 — degraded is an operating mode, not an
// outage.  Draining is the exception: it answers 503 so membership
// probes demote the peer before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	stats := s.suite.Store.Stats()
	hs := cluster.HealthStatus{
		Status:         "ok",
		ResultsVersion: harness.ResultsVersion,
		StoreEntries:   stats.Entries,
		StoreBytes:     stats.Bytes,
		StoreDegraded:  stats.Degraded,
	}
	if stats.Degraded {
		hs.Status = "degraded"
	}
	if s.cluster != nil {
		hs.Cluster = s.cluster.Health()
		if hs.Cluster.Degraded > 0 {
			hs.Status = "degraded"
		}
	}
	hs.RepairPulled = int(s.repairPulled.Load())
	if s.draining.Load() {
		hs.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, hs)
		return
	}
	if s.repairing.Load() {
		hs.Status = "repairing"
		writeJSON(w, http.StatusServiceUnavailable, hs)
		return
	}
	writeJSON(w, http.StatusOK, hs)
}

// handleCell is the shard side of the cluster protocol: execute (or
// serve from cache) one fully resolved sweep cell for a coordinator.
// Version or scale skew answers 409 — the coordinator then recomputes
// locally instead of merging results from different physics — and a
// cell its workload cannot run answers 400.  The response embeds a
// checksum of the result bytes so a payload mangled in flight is
// detected and retried by the caller.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var req cluster.CellRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Version != harness.ResultsVersion {
		writeError(w, http.StatusConflict,
			fmt.Errorf("results version %d, want %d", req.Version, harness.ResultsVersion))
		return
	}
	if req.Scale != s.suite.Scale {
		writeError(w, http.StatusConflict,
			fmt.Errorf("input scale %d, want %d", req.Scale, s.suite.Scale))
		return
	}
	if err := checkCell(req.Cell); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveCell(w, r, "cells", req.Cell, func(a harness.Answer) {
		sum := sha256.Sum256(a.JSON)
		writeJSONCompact(w, http.StatusOK, cluster.CellResponse{
			Key:    a.Key.String(),
			Cached: a.Cached,
			SHA256: hex.EncodeToString(sum[:]),
			Result: a.JSON,
		})
	})
}

// checkCell refuses a cell no configuration of its workload could run,
// before it takes an admission slot.
func checkCell(c harness.SweepCell) error {
	w, err := workloads.ByName(c.Workload)
	if err != nil || c.Baseline {
		return err
	}
	return c.Config.Check(w)
}

// serveCell answers one read-class request for cell c through reply.
// It takes a slot of the route's admission class like every read.  A
// cell whose payload the store holds in memory is a hit: the slot is
// released and reply copies the stored bytes on the handler goroutine,
// so a hit costs no goroutine, channel, decode or re-encode, and a slow
// reader never holds a slot.  Any other cell (absent, in flight,
// failed, on disk only) runs on a tracked goroutine that holds the
// slot: its error answers 500, and a run that outlives RequestTimeout
// answers 504 while it finishes into the store for the retry.
func (s *Server) serveCell(w http.ResponseWriter, r *http.Request, route string, c harness.SweepCell, reply func(harness.Answer)) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	release, err := s.acquire(ctx, s.readC, route)
	if err != nil {
		writeLoadError(w, err)
		return
	}
	if a, ok := s.suite.Hit(c); ok {
		release()
		reply(a)
		return
	}
	type outcome struct {
		a   harness.Answer
		err error
	}
	out := make(chan outcome, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer release()
		a, err := s.suite.Serve(c)
		out <- outcome{a, err}
	}()
	select {
	case o := <-out:
		if o.err != nil {
			writeError(w, http.StatusInternalServerError, o.err)
			return
		}
		reply(o.a)
	case <-ctx.Done():
		writeError(w, http.StatusGatewayTimeout,
			errors.New("simulation still running; retry to pick up the cached result"))
	}
}

// handleManifest is the anti-entropy read side: the store's full
// sorted-by-key index (keys and sizes, no payloads), which a rejoining
// peer diffs against its own to find the cells it missed while dead.
// Cheap by construction — the store keeps its entry table in memory —
// so no admission slot is taken.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	writeJSONCompact(w, http.StatusOK, cluster.Manifest{
		ResultsVersion: harness.ResultsVersion,
		Entries:        s.suite.Store.Manifest(),
	})
}

// handleStoreGet serves one stored cell's raw payload by key — the
// pull side of rejoin repair.  The response embeds the payload
// checksum so a transfer corrupted in flight is detected and retried
// by the puller instead of poisoning its store.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	key, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var raw json.RawMessage
	if !s.suite.Store.Get(key, &raw) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cell %.16s", key.String()))
		return
	}
	sum := sha256.Sum256(raw)
	writeJSONCompact(w, http.StatusOK, cluster.CellResponse{
		Key:    key.String(),
		Cached: true,
		SHA256: hex.EncodeToString(sum[:]),
		Result: raw,
	})
}

// handleStorePut is the replica-write route: a coordinator (write
// fan-out, hint redelivery) pushes an already-computed cell straight
// into this shard's store, memory-only or not.  Nothing is executed;
// the payload is checksum- and version-gated so a corrupted or skewed
// write is rejected instead of stored.
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	key, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req cluster.ReplicaWrite
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Version != harness.ResultsVersion {
		writeError(w, http.StatusConflict,
			fmt.Errorf("results version %d, want %d", req.Version, harness.ResultsVersion))
		return
	}
	if req.Key != "" && req.Key != key.String() {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("body key %.16s does not match path key %.16s", req.Key, key.String()))
		return
	}
	sum := sha256.Sum256(req.Result)
	if hex.EncodeToString(sum[:]) != req.SHA256 {
		writeError(w, http.StatusBadRequest, errors.New("payload checksum mismatch"))
		return
	}
	// The store keeps a payload's canonical encoding (compact, HTML
	// escaped), so only a payload already in that form is served back
	// under the checksum it arrived with.
	if canon, err := json.Marshal(req.Result); err != nil || !bytes.Equal(canon, req.Result) {
		writeError(w, http.StatusBadRequest, errors.New("payload is not canonical JSON"))
		return
	}
	if err := s.suite.Store.Put(key, req.Result); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleMetrics serves the live snapshot (Everything mode: volatile
// families included), mirroring the /debug/vars view.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.suite.Obs.Reg().SnapshotJSON(obs.Everything))
}

// simulateRequest mirrors cmd/axmemo's single-run flags.
type simulateRequest struct {
	Benchmark   string  `json:"benchmark"`
	Mode        string  `json:"mode"` // "hw" (default), "soft", "atm", "baseline"
	L1KB        int     `json:"l1_kb"`
	L2KB        int     `json:"l2_kb"`
	TruncOff    bool    `json:"trunc_off"`
	GuardBudget float64 `json:"guard_budget"`
	MaxCycles   uint64  `json:"max_cycles"`
	// Tenant routes the request through the approximation manager,
	// which owns the knobs (mode, geometry, truncation, guard budget)
	// for its tenants.  Empty or "default" is the unmanaged path,
	// byte-for-byte identical to a manager-less server.
	Tenant string `json:"tenant"`
}

// cell translates the request into a checked sweep cell, defaulting
// the hardware geometry like the CLI (L1 8KB + L2 512KB).
func (q *simulateRequest) cell() (harness.SweepCell, error) {
	w, err := workloads.ByName(q.Benchmark)
	if err != nil {
		return harness.SweepCell{}, err
	}
	var cfg harness.Config
	switch q.Mode {
	case "baseline":
		return harness.SweepCell{Workload: q.Benchmark, Baseline: true}, nil
	case "hw", "":
		l1, l2 := q.L1KB, q.L2KB
		if l1 <= 0 && l2 <= 0 {
			l1, l2 = 8, 512
		}
		cfg = harness.HW(fmt.Sprintf("L1 (%dKB)", l1), l1, 0)
		if l2 > 0 {
			cfg = harness.HW(fmt.Sprintf("L1 (%dKB)+L2 (%dKB)", l1, l2), l1, l2)
		}
	case "soft":
		cfg = harness.Config{Name: "Software LUT", Mode: harness.ModeSoftLUT, Scale: 1}
	case "atm":
		cfg = harness.Config{Name: "ATM", Mode: harness.ModeATM, Scale: 1}
	default:
		return harness.SweepCell{}, fmt.Errorf("unknown mode %q (want hw, soft, atm or baseline)", q.Mode)
	}
	if q.TruncOff {
		cfg.Trunc = make([]uint8, len(w.TruncBits))
		cfg.Name += " no-approx"
	}
	cfg.GuardBudget = q.GuardBudget
	cfg.MaxCycles = q.MaxCycles
	return harness.SweepCell{Workload: q.Benchmark, Config: cfg}, cfg.Check(w)
}

// simulateResponse reports one cell's result and where it came from.
// It is the decoded form of a /v1/simulate answer; writeSimulate writes
// the answer itself.
type simulateResponse struct {
	simulateHead
	Result *harness.Result `json:"result"`
	// Manager reports the manager's view of a managed (tenant-routed)
	// run; absent on the unmanaged path.
	Manager *tenantRunInfo `json:"manager,omitempty"`
}

// simulateHead is the part of a /v1/simulate answer before its result.
type simulateHead struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Key      string `json:"key"`
	Cached   bool   `json:"cached"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Tenant != "" && req.Tenant != manager.DefaultTenant {
		s.handleManagedSimulate(w, r, req)
		return
	}
	cell, err := req.cell()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveCell(w, r, "simulate", cell, func(a harness.Answer) {
		writeSimulate(w, simulateHead{
			Workload: cell.Workload,
			Config:   cell.ConfigName(),
			Key:      a.Key.String(),
			Cached:   a.Cached,
		}, a.JSON, nil)
	})
}

// writeSimulate writes a 200 /v1/simulate answer as compact JSON with
// the fields of simulateResponse in order.  Only the head and the
// manager block are encoded; result is a copy of the cell's canonical
// bytes (json.Marshal of its Result, as in the store and on /v1/cells).
func writeSimulate(w http.ResponseWriter, head simulateHead, result []byte, mgr *tenantRunInfo) {
	h, err := json.Marshal(head)
	var info []byte
	if err == nil && mgr != nil {
		info, err = json.Marshal(mgr)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	body := make([]byte, 0, len(h)+len(result)+len(info)+24)
	body = append(body, h[:len(h)-1]...) // reopen the head object
	body = append(body, `,"result":`...)
	body = append(body, result...)
	if info != nil {
		body = append(body, `,"manager":`...)
		body = append(body, info...)
	}
	body = append(body, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client gone mid-write is its problem
}

// sweepRequest starts an asynchronous figure sweep.
type sweepRequest struct {
	// Figures are scheduler figure IDs; empty or ["all"] sweeps all.
	Figures []string `json:"figures"`
}

type sweepResponse struct {
	Job       string `json:"job"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
	// Deduplicated is true when an identical in-flight sweep was
	// returned instead of starting a new one.
	Deduplicated bool `json:"deduplicated,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ids, err := normalizeFigureIDs(req.Figures)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, created, err := s.jobs.getOrCreate(strings.Join(ids, ","), ids)
	if err != nil {
		writeLoadError(w, err)
		return
	}
	if created {
		s.wg.Add(1)
		go s.runJob(j)
	}
	code := http.StatusAccepted
	if !created {
		code = http.StatusOK
	}
	writeJSON(w, code, sweepResponse{
		Job: j.id, State: j.view().State,
		StatusURL: "/v1/jobs/" + j.id, Deduplicated: !created,
	})
}

// runJob executes one sweep job on the suite's scheduler pool and
// renders its figures from the results the sweep produced.  Jobs hold
// a sweep-class admission slot for their whole run, so queued jobs and
// synchronous figure renders share one concurrency budget.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	defer s.jobs.release(j)
	release := s.acquireJob()
	defer release()
	start := time.Now()

	cells, err := harness.SweepCells(j.figures...)
	if err != nil {
		s.finishJob(j, nil, err, start)
		return
	}
	j.setRunning(len(cells))
	figs, err := s.suite.GenerateAll(j.figures...)
	if err != nil {
		s.finishJob(j, nil, err, start)
		return
	}
	results := make([]JobFigure, 0, len(figs))
	for _, fig := range figs {
		results = append(results, JobFigure{ID: fig.ID, Title: fig.Title, Text: fig.String()})
	}
	s.finishJob(j, results, nil, start)
}

func (s *Server) finishJob(j *job, results []JobFigure, err error, start time.Time) {
	state := j.finish(results, err)
	s.m.jobsTotal.With(state).Inc()
	s.m.jobSecs.Observe(time.Since(start).Seconds())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleFigureList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"figures": harness.FigureIDs()})
}

// figureResponse carries one rendered figure, structured and as text.
type figureResponse struct {
	Figure *harness.Figure `json:"figure"`
	Text   string          `json:"text"`
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	ids, err := normalizeFigureIDs([]string{r.PathValue("name")})
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	release, err := s.acquire(ctx, s.sweepC, "figures")
	if err != nil {
		writeLoadError(w, err)
		return
	}
	type outcome struct {
		fig *harness.Figure
		err error
	}
	out := make(chan outcome, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer release()
		fig, err := s.suite.Generate(ids[0])
		out <- outcome{fig, err}
	}()
	select {
	case o := <-out:
		if o.err != nil {
			writeError(w, http.StatusInternalServerError, o.err)
			return
		}
		writeJSON(w, http.StatusOK, figureResponse{Figure: o.fig, Text: o.fig.String()})
	case <-ctx.Done():
		writeError(w, http.StatusGatewayTimeout,
			errors.New("figure still rendering; retry to pick up the cached result"))
	}
}

// normalizeFigureIDs resolves requested IDs case-insensitively against
// the scheduler's known set; empty or "all" selects everything.
func normalizeFigureIDs(in []string) ([]string, error) {
	known := harness.FigureIDs()
	if len(in) == 0 || (len(in) == 1 && strings.EqualFold(in[0], "all")) {
		return known, nil
	}
	var ids []string
	for _, id := range in {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		found := false
		for _, k := range known {
			if strings.EqualFold(id, k) {
				ids = append(ids, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown figure %q (have %v)", id, known)
		}
	}
	if len(ids) == 0 {
		return known, nil
	}
	return ids, nil
}

// decodeBody parses a bounded JSON request body holding exactly one
// JSON value: anything but whitespace after it is rejected.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("bad request body: after the JSON value: %w", err)
	default:
		return errors.New("bad request body: more than one JSON value")
	}
}

// writeLoadError maps backpressure and timeout conditions to their
// status codes.
func writeLoadError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBusy), errors.Is(err, errJobsFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// writeJSONCompact writes v without re-indentation: the cell protocol
// checksums the embedded raw result bytes, which the pretty-printing
// encoder below would reformat and thereby invalidate.
func writeJSONCompact(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone mid-write is its problem
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write is its problem
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
