package server

// The tenant API and the managed simulate path.  A request that names
// a registered tenant surrenders the approximation knobs to the
// manager: the manager picks the operating point (truncation level,
// LUT slice, guard budget), the server evaluates it together with the
// workload's baseline — both through the suite's result store — and the
// measured quality/speedup is fed back into the tenant's controller,
// so every managed request is one closed-loop control epoch.

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"axmemo/internal/harness"
	"axmemo/internal/manager"
	"axmemo/internal/workloads"
)

// tenantRunInfo is the manager block of a managed simulate response.
type tenantRunInfo struct {
	Tenant      string  `json:"tenant"`
	Level       int     `json:"level"`
	L1KB        int     `json:"l1_kb"`
	GuardBudget float64 `json:"guard_budget"`
	ErrorBudget float64 `json:"error_budget"`
	MeanError   float64 `json:"mean_error"`
	SpeedupEst  float64 `json:"speedup_est"`
	Settled     bool    `json:"settled"`
	Direction   string  `json:"direction"`
}

// tenantPutRequest is the PUT /v1/tenants/{id} body.
type tenantPutRequest struct {
	ErrorBudget float64 `json:"error_budget"`
	ShareWeight float64 `json:"share_weight"`
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	if s.mgr == nil {
		writeError(w, http.StatusNotFound, errors.New("no approximation manager configured"))
		return
	}
	writeJSON(w, http.StatusOK, map[string][]manager.TenantStatus{"tenants": s.mgr.Tenants()})
}

func (s *Server) handleTenantPut(w http.ResponseWriter, r *http.Request) {
	if s.mgr == nil {
		writeError(w, http.StatusNotFound, errors.New("no approximation manager configured"))
		return
	}
	var req tenantPutRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	created, err := s.mgr.Upsert(manager.Tenant{
		ID:          r.PathValue("id"),
		ErrorBudget: req.ErrorBudget,
		ShareWeight: req.ShareWeight,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	for _, st := range s.mgr.Tenants() {
		if st.ID == r.PathValue("id") {
			writeJSON(w, code, st)
			return
		}
	}
	writeError(w, http.StatusInternalServerError, errors.New("tenant vanished after upsert"))
}

// handleManagedSimulate serves a /v1/simulate that names a tenant.
// The manager owns the knobs, so a managed request may not set any of
// them itself.
func (s *Server) handleManagedSimulate(w http.ResponseWriter, r *http.Request, req simulateRequest) {
	if s.mgr == nil {
		writeError(w, http.StatusBadRequest,
			errors.New("request names a tenant but no approximation manager is configured"))
		return
	}
	if req.Mode != "" && req.Mode != "hw" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("managed requests run in hw mode; mode %q is not available per tenant", req.Mode))
		return
	}
	if req.L1KB != 0 || req.L2KB != 0 || req.TruncOff || req.GuardBudget != 0 {
		writeError(w, http.StatusBadRequest,
			errors.New("managed requests may not set l1_kb, l2_kb, trunc_off or guard_budget: the manager owns those knobs"))
		return
	}
	wl, err := workloads.ByName(req.Benchmark)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	knobs, err := s.mgr.Knobs(req.Tenant, req.Benchmark)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	tenant, _ := s.mgr.Lookup(req.Tenant)
	cfg := knobs.CellConfig(wl)
	cfg.MaxCycles = req.MaxCycles
	cell := harness.SweepCell{Workload: req.Benchmark, Config: cfg}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	release, err := s.acquire(ctx, s.readC, "simulate")
	if err != nil {
		writeLoadError(w, err)
		return
	}
	type outcome struct {
		a    harness.Answer
		base *harness.Result
		err  error
	}
	out := make(chan outcome, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer release()
		var o outcome
		// The baseline anchors the speedup estimate; after the first
		// request it is a pure cache hit.
		o.base, _, o.err = s.suite.RunCell(harness.SweepCell{Workload: req.Benchmark, Baseline: true})
		if o.err == nil {
			o.a, o.err = s.suite.Serve(cell)
		}
		out <- o
	}()
	select {
	case o := <-out:
		if o.err != nil {
			writeError(w, http.StatusInternalServerError, o.err)
			return
		}
		res := o.a.Result
		obs := manager.Observation{
			MeanError:  res.MeanError,
			Speedup:    float64(o.base.Cycles) / float64(res.Cycles),
			GuardTrips: res.Monitor.GuardDisables,
		}
		dir, err := s.mgr.Observe(req.Tenant, req.Benchmark, obs)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		st, _ := s.mgr.Status(req.Tenant, req.Benchmark)
		writeSimulate(w, simulateHead{
			Workload: req.Benchmark,
			Config:   cfg.Name,
			Key:      o.a.Key.String(),
			Cached:   o.a.Cached,
		}, o.a.JSON, &tenantRunInfo{
			Tenant:      req.Tenant,
			Level:       knobs.Level,
			L1KB:        knobs.L1KB,
			GuardBudget: knobs.GuardBudget,
			ErrorBudget: tenant.ErrorBudget,
			MeanError:   obs.MeanError,
			SpeedupEst:  obs.Speedup,
			Settled:     st.Settled,
			Direction:   dir,
		})
	case <-ctx.Done():
		writeError(w, http.StatusGatewayTimeout,
			errors.New("simulation still running; retry to pick up the cached result"))
	}
}
