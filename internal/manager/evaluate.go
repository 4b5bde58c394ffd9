package manager

import (
	"fmt"
	"strings"

	"axmemo/internal/harness"
	"axmemo/internal/workloads"
)

// Evaluator measures one workload under one knob configuration.  The
// server's live request path is one implementation (every /v1/simulate
// with a tenant is an evaluation); SuiteEvaluator is the offline one.
type Evaluator interface {
	Evaluate(workload string, k Knobs) (Observation, error)
}

// SuiteEvaluator evaluates knob configurations through a harness
// suite, so evaluations hit the suite's result store —
// re-visiting an operating point (or a second tenant converging to the
// same one) costs nothing.
type SuiteEvaluator struct {
	Suite *harness.Suite
}

// Evaluate runs the workload under the knobs (and its baseline, cached
// after the first call) and condenses the result into an Observation.
func (e *SuiteEvaluator) Evaluate(workload string, k Knobs) (Observation, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return Observation{}, err
	}
	base, _, err := e.Suite.RunCell(harness.SweepCell{Workload: workload, Baseline: true})
	if err != nil {
		return Observation{}, fmt.Errorf("manager: baseline for %s: %w", workload, err)
	}
	res, _, err := e.Suite.RunCell(harness.SweepCell{Workload: workload, Config: k.CellConfig(w)})
	if err != nil {
		return Observation{}, fmt.Errorf("manager: evaluating %s at level %d: %w", workload, k.Level, err)
	}
	return Observation{
		MeanError:  res.MeanError,
		Speedup:    float64(base.Cycles) / float64(res.Cycles),
		GuardTrips: res.Monitor.GuardDisables,
	}, nil
}

// EpochRecord is one tenant's decision in one control epoch.
type EpochRecord struct {
	Epoch      int     `json:"epoch"`
	Tenant     string  `json:"tenant"`
	Level      int     `json:"level"`
	MeanError  float64 `json:"mean_error"`
	Speedup    float64 `json:"speedup"`
	GuardTrips uint64  `json:"guard_trips"`
	Direction  string  `json:"direction"`
}

// ConvergeReport is the trajectory of one Converge run.
type ConvergeReport struct {
	Workload   string                    `json:"workload"`
	Epochs     int                       `json:"epochs"`
	AllSettled bool                      `json:"all_settled"`
	Records    []EpochRecord             `json:"records"`
	Final      map[string]WorkloadStatus `json:"final"`
}

// Converge drives every registered tenant's controller for the
// workload until all settle (or maxEpochs expires), evaluating each
// epoch's knobs through ev.  Tenants are stepped in sorted ID order,
// so the trajectory — and every metric the run emits — is
// deterministic for a fixed seed.
func (m *Manager) Converge(ev Evaluator, workload string, maxEpochs int) (*ConvergeReport, error) {
	ids := m.TenantIDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("manager: no tenants registered")
	}
	if maxEpochs <= 0 {
		maxEpochs = 32
	}
	rep := &ConvergeReport{Workload: workload, Final: make(map[string]WorkloadStatus)}
	for epoch := 1; epoch <= maxEpochs; epoch++ {
		rep.Epochs = epoch
		allSettled := true
		for _, id := range ids {
			k, err := m.Knobs(id, workload)
			if err != nil {
				return rep, err
			}
			o, err := ev.Evaluate(workload, k)
			if err != nil {
				return rep, err
			}
			dir, err := m.Observe(id, workload, o)
			if err != nil {
				return rep, err
			}
			rep.Records = append(rep.Records, EpochRecord{
				Epoch: epoch, Tenant: id, Level: k.Level,
				MeanError: o.MeanError, Speedup: o.Speedup,
				GuardTrips: o.GuardTrips, Direction: dir,
			})
			st, _ := m.Status(id, workload)
			if !st.Settled {
				allSettled = false
			}
		}
		if allSettled {
			rep.AllSettled = true
			break
		}
	}
	for _, id := range ids {
		if st, ok := m.Status(id, workload); ok {
			rep.Final[id] = st
		}
	}
	return rep, nil
}

// ABRow compares one tenant's managed operating point against the
// static paper-default configuration at the same allocation.
type ABRow struct {
	Tenant         string  `json:"tenant"`
	ErrorBudget    float64 `json:"error_budget"`
	StaticLevel    int     `json:"static_level"`
	StaticError    float64 `json:"static_error"`
	StaticSpeedup  float64 `json:"static_speedup"`
	ManagedLevel   int     `json:"managed_level"`
	ManagedError   float64 `json:"managed_error"`
	ManagedSpeedup float64 `json:"managed_speedup"`
	Settled        bool    `json:"settled"`
}

// ABReport is the manager-on vs manager-off comparison for one
// workload.
type ABReport struct {
	Workload string          `json:"workload"`
	Converge *ConvergeReport `json:"converge"`
	Rows     []ABRow         `json:"rows"`
}

// ABCompare converges the manager on the workload, then evaluates each
// tenant's static alternative — the Table 2 default truncation at the
// same LUT allocation and guard budget — and tabulates both.
func (m *Manager) ABCompare(ev Evaluator, workload string, maxEpochs int) (*ABReport, error) {
	conv, err := m.Converge(ev, workload, maxEpochs)
	if err != nil {
		return nil, err
	}
	rep := &ABReport{Workload: workload, Converge: conv}
	for _, id := range m.TenantIDs() {
		k, err := m.Knobs(id, workload)
		if err != nil {
			return nil, err
		}
		static := Knobs{Level: DefaultLevel, L1KB: k.L1KB, GuardBudget: k.GuardBudget}
		so, err := ev.Evaluate(workload, static)
		if err != nil {
			return nil, err
		}
		st := conv.Final[id]
		t, _ := m.Lookup(id)
		rep.Rows = append(rep.Rows, ABRow{
			Tenant:         id,
			ErrorBudget:    t.ErrorBudget,
			StaticLevel:    DefaultLevel,
			StaticError:    so.MeanError,
			StaticSpeedup:  so.Speedup,
			ManagedLevel:   st.Level,
			ManagedError:   st.MeanError,
			ManagedSpeedup: st.SpeedupEst,
			Settled:        st.Settled,
		})
	}
	return rep, nil
}

// String renders the A/B comparison as a text table.
func (r *ABReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A/B: managed vs static default (%s, %d epochs, settled=%v)\n",
		r.Workload, r.Converge.Epochs, r.Converge.AllSettled)
	fmt.Fprintf(&b, "%-12s %8s | %5s %10s %8s | %5s %10s %8s\n",
		"tenant", "budget", "lvl", "mean err", "speedup", "lvl", "mean err", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %7.2g%% | %5d %9.4f%% %7.2fx | %5d %9.4f%% %7.2fx\n",
			row.Tenant, 100*row.ErrorBudget,
			row.StaticLevel, 100*row.StaticError, row.StaticSpeedup,
			row.ManagedLevel, 100*row.ManagedError, row.ManagedSpeedup)
	}
	return b.String()
}
