package harness

// This file is the suite's one cell cache: every finished cell lives in
// the content-addressed result store (internal/store) and nowhere else.
// NewSuite attaches a memory-only store; a caller that points the suite
// at a store directory shares cells byte-identically with every process
// that derives the same keys — the axmemod daemon, axmemo -figures,
// axreport, axbench.  The store is a cache, not a dependency: a corrupt
// or missing blob is a miss that recomputes and repairs the entry, and
// a failed write never fails the run.  The suite itself keeps a cell
// only while its run is in flight (Suite.inflight).

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

// fill computes one cell that is not in flight: from the store, else
// from the remote tier if attached, else by simulating it.  A result
// that did not come from the store is written back (which also repairs
// a corrupted entry) before the cell leaves flight, so a later caller
// finds it there.  executed reports whether this call ran the
// simulation.
func (s *Suite) fill(w *workloads.Workload, cfg Config, baseline bool, key store.Key) (res *Result, executed bool, err error) {
	res = new(Result)
	if s.Store.Get(key, res) {
		return res, false, nil
	}
	if res, executed, err = s.compute(w, cfg, baseline); err != nil {
		return nil, executed, err
	}
	// Best-effort write-back: failures are counted by the store's own
	// put-error telemetry and must not fail a successful simulation.
	_ = s.Store.Put(key, res)
	return res, executed, nil
}

// compute runs a cell the store does not hold on the remote tier, or
// locally when there is none or it declines.
func (s *Suite) compute(w *workloads.Workload, cfg Config, baseline bool) (*Result, bool, error) {
	if s.Remote != nil {
		outcomes := s.Obs.Reg().NewCounterVec("harness_remote_cells_total",
			obs.Opts{Help: "cells offered to the remote tier, by outcome (served = a replica answered, fallback = all replicas unavailable, local tiers took over)"},
			"outcome")
		if res, executed, ok := s.Remote(SweepCell{Workload: w.Name, Config: cfg, Baseline: baseline}); ok {
			outcomes.With("served").Inc()
			return res, executed, nil
		}
		outcomes.With("fallback").Inc()
	}
	res, err := s.execCell(w, cfg)
	return res, true, err
}

// execCell runs the simulation, counting actual executions so cache
// effectiveness is checkable next to the store's hit/miss counters
// (the e2e tests assert a warm sweep leaves this counter flat).
func (s *Suite) execCell(w *workloads.Workload, cfg Config) (*Result, error) {
	s.Obs.Reg().NewCounter("harness_cell_exec_total",
		obs.Opts{Help: "sweep cells actually simulated (not served from the result store)"}).Inc()
	return Run(w, cfg)
}

// CellKey returns the key c is stored under: the store key of its
// resolved configuration (the baseline expanded, the suite's Scale set).
func (s *Suite) CellKey(c SweepCell) store.Key {
	cfg := c.Config
	if c.Baseline {
		cfg = Baseline()
	}
	cfg.Scale = s.Scale
	return CellStoreKey(c.Workload, cfg)
}

// RunCell executes (or serves from the store) one enumerated sweep
// cell.  The executed flag is false when the result came from the
// store, the remote tier's cache, or another caller's flight — the
// serving layer's "cached" signal.
func (s *Suite) RunCell(c SweepCell) (res *Result, executed bool, err error) {
	f, executed, err := s.sweepCell(c)
	if err != nil {
		return nil, executed, err
	}
	return f.res, executed, nil
}

// sweepCell resolves c's workload and runs (or waits for) its cell.
func (s *Suite) sweepCell(c SweepCell) (*flight, bool, error) {
	w, err := workloads.ByName(c.Workload)
	if err != nil {
		return nil, false, err
	}
	cfg := c.Config
	if c.Baseline {
		cfg = Baseline()
	}
	f, executed := s.cell(w, cfg, c.Baseline)
	return f, executed, f.err
}

// Answer is one cell as the serving layer returns it.
type Answer struct {
	// Key is the cell's store key.
	Key store.Key
	// Result is the cell's result; nil in an answer from Hit, which
	// answers with the stored bytes alone.
	Result *Result
	// JSON is json.Marshal(*Result): byte-equal to the cell's store
	// payload and to the encoding of a direct Run of its configuration.
	// A cached answer's bytes are the store's own, shared with every
	// later answer: read-only.
	JSON []byte
	// Cached is false only when this call executed the simulation (the
	// executed flag of RunCell, inverted).
	Cached bool
}

// Serve runs (or serves from the store) c like RunCell and returns the
// encoded answer: the store's payload bytes, which every run writes
// there before it leaves flight, so no answer re-encodes a cell the
// store holds.
func (s *Suite) Serve(c SweepCell) (Answer, error) {
	f, executed, err := s.sweepCell(c)
	if err != nil {
		return Answer{}, err
	}
	enc, ok := s.Store.Payload(f.key)
	if !ok {
		// Evicted since, or its write failed: encode the result.
		if enc, err = json.Marshal(f.res); err != nil {
			return Answer{}, err
		}
	}
	return Answer{Key: f.key, Result: f.res, JSON: enc, Cached: !executed}, nil
}

// Hit is the non-blocking half of Serve: it answers c only when the
// store holds its payload in memory, and never runs, waits for or
// decodes a cell, or reads the disk.  ok is false for a cell that is
// absent, in flight, failed or on disk only; Serve answers those.
func (s *Suite) Hit(c SweepCell) (a Answer, ok bool) {
	key := s.CellKey(c)
	b, ok := s.Store.Payload(key)
	if !ok {
		return Answer{}, false
	}
	return Answer{Key: key, JSON: b, Cached: true}, true
}
