package harness

// This file backs the suite's in-memory cell cache with the disk-backed
// content-addressed result store (internal/store): every process that
// derives the same cell key — the axmemod daemon, axmemo -figures,
// axreport, axbench — reuses previously computed cells byte-identically
// instead of recomputing them.  The store is a cache, not a dependency:
// a corrupt or missing blob is a miss that recomputes and repairs the
// entry, and a failed write never fails the run.

import (
	"encoding/json"
	"fmt"

	"axmemo/internal/obs"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

// ResultsVersion is the code-version component of every result-store
// key.  Bump it whenever the simulator, the workloads, or the Result
// schema change meaning: stale blobs then miss and are recomputed
// instead of serving a different model's physics.
const ResultsVersion = 3

// CellStoreKey derives the content address of one sweep cell: a
// SHA-256 over (code version, workload, full configuration).  The
// configuration is serialized with its observability fields cleared —
// metrics collection never changes simulation results — so
// instrumented and bare runs share cells.  Seeds (fault plans) and the
// input scale ride inside the Config and therefore inside the key.
func CellStoreKey(workload string, cfg Config) store.Key {
	cfg.Obs = nil
	cfg.ObsPID = 0
	spec, err := json.Marshal(struct {
		Version  int    `json:"version"`
		Workload string `json:"workload"`
		Config   Config `json:"config"`
	}{ResultsVersion, workload, cfg})
	if err != nil {
		// Config is a plain value struct; encoding cannot fail.
		panic(fmt.Sprintf("harness: encoding store key spec: %v", err))
	}
	return store.KeyOf("axmemo/result", string(spec))
}

// loadOrRun serves one cell from the attached result store under its
// key, falling back to executing the simulation on a miss (and writing
// the result back, which also repairs corrupted entries).  The executed
// flag reports whether this call ran the simulation.
func (s *Suite) loadOrRun(w *workloads.Workload, cfg Config, key store.Key) (res *Result, executed bool, err error) {
	if s.Store == nil {
		res, err = s.execCell(w, cfg)
		return res, true, err
	}
	res = new(Result)
	if s.Store.Get(key, res) {
		return res, false, nil
	}
	res, err = s.execCell(w, cfg)
	if err != nil {
		return nil, true, err
	}
	// Best-effort write-back: failures are counted by the store's own
	// put-error telemetry and must not fail a successful simulation.
	_ = s.Store.Put(key, res)
	return res, true, nil
}

// execCell runs the simulation, counting actual executions so cache
// effectiveness is checkable next to the store's hit/miss counters
// (the e2e tests assert a warm sweep leaves this counter flat).
func (s *Suite) execCell(w *workloads.Workload, cfg Config) (*Result, error) {
	s.Obs.Reg().NewCounter("harness_cell_exec_total",
		obs.Opts{Help: "sweep cells actually simulated (not served from the result store)"}).Inc()
	return Run(w, cfg)
}

// CellKey returns the key c is cached under: the store key of its
// resolved configuration (the baseline expanded, the suite's Scale set).
func (s *Suite) CellKey(c SweepCell) store.Key {
	cfg := c.Config
	if c.Baseline {
		cfg = Baseline()
	}
	cfg.Scale = s.Scale
	return CellStoreKey(c.Workload, cfg)
}

// RunCell executes (or serves from cache) one enumerated sweep cell.
// The executed flag is false when the result came from the in-memory
// cell cache, the disk store, or another in-flight caller — the serving
// layer's "cached" signal.
func (s *Suite) RunCell(c SweepCell) (res *Result, executed bool, err error) {
	cl, executed, err := s.cellFor(c)
	if err != nil {
		return nil, executed, err
	}
	return cl.res, executed, nil
}

// cellFor runs (or waits for) the cache cell of c.
func (s *Suite) cellFor(c SweepCell) (*cell, bool, error) {
	w, err := workloads.ByName(c.Workload)
	if err != nil {
		return nil, false, err
	}
	cfg := c.Config
	if c.Baseline {
		cfg = Baseline()
	}
	cl, executed := s.runCellDetail(w, cfg, c.Baseline)
	return cl, executed, cl.err
}

// Answer is one cell as the serving layer returns it.
type Answer struct {
	// Key is the cell's store key, which also keys the suite cache.
	Key store.Key
	// Result is the cell's result.
	Result *Result
	// JSON is json.Marshal(*Result): byte-equal to the cell's store
	// payload and to the encoding of a direct Run of its configuration.
	// A cached answer's bytes are the cell's own, shared with every
	// later answer: read-only.
	JSON []byte
	// Cached is false only when this call executed the simulation (the
	// executed flag of RunCell, inverted).
	Cached bool
}

// Serve runs (or serves from cache) c like RunCell and returns the
// encoded answer.  A fresh answer is encoded for this call alone, so a
// stream of never-repeating cells keeps no bytes; the first cached
// answer encodes the result once and keeps the bytes on the cell, so
// every later Hit is a copy.
func (s *Suite) Serve(c SweepCell) (Answer, error) {
	cl, executed, err := s.cellFor(c)
	if err != nil {
		return Answer{}, err
	}
	a := Answer{Key: cl.key, Result: cl.res, Cached: !executed}
	if executed {
		a.JSON, err = json.Marshal(cl.res)
	} else {
		a.JSON, err = cl.encoded()
	}
	return a, err
}

// Hit is the non-blocking half of Serve: it answers c only when its
// cell has already finished without an error, and never runs, waits
// for or creates a cell.  ok is false for a cell that is absent, in
// flight or failed; Serve answers those.
func (s *Suite) Hit(c SweepCell) (a Answer, ok bool) {
	key := s.CellKey(c)
	s.mu.Lock()
	cl := s.cells[key]
	s.mu.Unlock()
	if cl == nil || !cl.done.Load() {
		return Answer{}, false
	}
	b, err := cl.encoded()
	if err != nil {
		return Answer{}, false
	}
	return Answer{Key: key, Result: cl.res, JSON: b, Cached: true}, true
}

// encoded returns the kept encoding of a finished cell's result,
// encoding it on first use.
func (c *cell) encoded() ([]byte, error) {
	c.encOnce.Do(func() { c.enc, c.encErr = json.Marshal(c.res) })
	return c.enc, c.encErr
}
