package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/store"
)

// skewedVersion is a ResultsVersion no peer of this build reports.
const skewedVersion = harness.ResultsVersion + 1

// healthzServer is a fake peer whose /healthz behavior is switchable.
type healthzServer struct {
	ts      *httptest.Server
	version atomic.Int64
	fail    atomic.Bool
}

func newHealthzServer(t *testing.T, version int) *healthzServer {
	t.Helper()
	h := &healthzServer{}
	h.version.Store(int64(version))
	h.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h.fail.Load() {
			http.Error(w, "on fire", http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, `{"status":"ok","results_version":%d,"store_entries":5,"store_bytes":512}`,
			h.version.Load())
	}))
	t.Cleanup(h.ts.Close)
	return h
}

func (h *healthzServer) peer(id string) Peer {
	return Peer{ID: id, Addr: strings.TrimPrefix(h.ts.URL, "http://")}
}

func TestMembershipProbeLifecycle(t *testing.T) {
	healthy := newHealthzServer(t, harness.ResultsVersion)
	flaky := newHealthzServer(t, harness.ResultsVersion)
	skewed := newHealthzServer(t, skewedVersion)

	peers := []Peer{healthy.peer("p-healthy"), flaky.peer("p-flaky"), skewed.peer("p-skewed")}
	m := NewMembership(peers, nil)
	m.FailThreshold = 2
	sink := obs.NewSink()
	m.Attach(sink)
	gauge := sink.Reg().NewGauge("cluster_degraded", obs.Opts{})

	ctx := context.Background()
	m.ProbeAll(ctx)
	if !m.Alive(0) || !m.Alive(1) {
		t.Fatal("healthy peers not alive after first probe")
	}
	if m.Alive(2) {
		t.Fatal("version-skewed peer admitted")
	}
	h := m.Health()
	if h.Degraded != 1 || h.Peers[2].State != StateIncompatible {
		t.Fatalf("health after skew probe = %+v", h)
	}
	if h.Peers[0].StoreEntries != 5 || h.Peers[0].ResultsVersion != harness.ResultsVersion {
		t.Fatalf("probe did not cache peer health: %+v", h.Peers[0])
	}

	// The flaky peer fails probes; FailThreshold=2 demotes it on the
	// second consecutive failure.
	flaky.fail.Store(true)
	m.ProbeAll(ctx)
	if !m.Alive(1) {
		t.Fatal("one failed probe already demoted the peer")
	}
	m.ProbeAll(ctx)
	if m.Alive(1) {
		t.Fatal("peer alive past the failure threshold")
	}
	if got := m.Degraded(); got != 2 {
		t.Fatalf("Degraded = %d, want 2", got)
	}
	if gauge.Value() != 2 {
		t.Fatalf("cluster_degraded gauge = %v, want 2", gauge.Value())
	}

	// Recovery: a matching-version peer is re-admitted by one good probe.
	flaky.fail.Store(false)
	m.ProbeAll(ctx)
	if !m.Alive(1) {
		t.Fatal("recovered peer not re-admitted")
	}

	// A rejoining peer with the wrong ResultsVersion is NOT re-admitted:
	// it parks in incompatible even though its probe succeeds.
	flaky.version.Store(skewedVersion)
	m.ProbeAll(ctx)
	if m.Alive(1) {
		t.Fatal("version-skewed rejoin was admitted")
	}
	if st := m.Health().Peers[1].State; st != StateIncompatible {
		t.Fatalf("rejoined skewed peer state = %s, want incompatible", st)
	}
	// ... and upgrading it back heals the cluster.
	flaky.version.Store(harness.ResultsVersion)
	skewed.version.Store(harness.ResultsVersion)
	m.ProbeAll(ctx)
	if m.Degraded() != 0 || gauge.Value() != 0 {
		t.Fatalf("cluster not healed: degraded=%d gauge=%v", m.Degraded(), gauge.Value())
	}
	if got := m.String(); got != "3/3 alive" {
		t.Fatalf("String = %q", got)
	}
}

func TestMembershipDataPathFailures(t *testing.T) {
	peers := []Peer{{ID: "a", Addr: "127.0.0.1:1"}, {ID: "b", Addr: "127.0.0.1:2"}}
	m := NewMembership(peers, nil)
	m.FailThreshold = 3
	m.Attach(obs.NewSink())

	m.ReportFailure(0)
	m.ReportFailure(0)
	m.ReportSuccess(0) // reset: the peer answered in between
	m.ReportFailure(0)
	m.ReportFailure(0)
	if !m.Alive(0) {
		t.Fatal("peer demoted before 3 consecutive failures")
	}
	m.ReportFailure(0)
	if m.Alive(0) {
		t.Fatal("peer alive after 3 consecutive failures")
	}
	if m.Alive(1) != true || m.Degraded() != 1 {
		t.Fatalf("unrelated peer affected: degraded=%d", m.Degraded())
	}
	// Out-of-range reports are ignored, not panics.
	m.ReportFailure(-1)
	m.ReportFailure(99)
	m.ReportSuccess(99)
}

// TestMembershipReplicaEligibility is the version-skew exclusion
// contract, table-driven: only an alive, version-matched peer may hold
// replicas of our cells.  A dead peer is excluded until it rejoins; a
// rejoining peer with a mismatched ResultsVersion parks incompatible
// and is excluded from replica sets AND from the rejoin hook that
// triggers hint redelivery — the coordinator only redelivers on a
// transition to alive, which a skewed peer never makes.
func TestMembershipReplicaEligibility(t *testing.T) {
	cases := []struct {
		name string
		// drive puts the fake peer in the state under test and probes.
		drive        func(h *healthzServer, m *Membership)
		wantState    string
		wantEligible bool
		// wantRejoinHook: does the driven transition sequence end on the
		// alive transition the coordinator hangs hint redelivery on?
		wantRejoinHook bool
	}{
		{
			name:         "alive matched version",
			drive:        func(h *healthzServer, m *Membership) { m.ProbeAll(context.Background()) },
			wantState:    StateAlive,
			wantEligible: true,
			// No transition at all: the peer started alive and stayed alive.
			wantRejoinHook: false,
		},
		{
			name: "dead after probe failures",
			drive: func(h *healthzServer, m *Membership) {
				h.fail.Store(true)
				m.ProbeAll(context.Background())
			},
			wantState:      StateDead,
			wantEligible:   false,
			wantRejoinHook: false,
		},
		{
			name: "rejoin with matched version",
			drive: func(h *healthzServer, m *Membership) {
				h.fail.Store(true)
				m.ProbeAll(context.Background())
				h.fail.Store(false)
				m.ProbeAll(context.Background())
			},
			wantState:      StateAlive,
			wantEligible:   true,
			wantRejoinHook: true, // the re-admission: hints flow now
		},
		{
			name: "rejoin with mismatched results_version",
			drive: func(h *healthzServer, m *Membership) {
				h.fail.Store(true)
				m.ProbeAll(context.Background())
				h.fail.Store(false)
				h.version.Store(skewedVersion)
				m.ProbeAll(context.Background())
			},
			wantState:      StateIncompatible,
			wantEligible:   false,
			wantRejoinHook: false, // skewed stores must not receive our cells
		},
		{
			name: "skewed peer upgraded back",
			drive: func(h *healthzServer, m *Membership) {
				h.version.Store(skewedVersion)
				m.ProbeAll(context.Background())
				h.version.Store(harness.ResultsVersion)
				m.ProbeAll(context.Background())
			},
			wantState:      StateAlive,
			wantEligible:   true,
			wantRejoinHook: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHealthzServer(t, harness.ResultsVersion)
			m := NewMembership([]Peer{h.peer("p")}, nil)
			m.FailThreshold = 1
			m.Attach(obs.NewSink())
			var (
				mu   sync.Mutex
				last string
			)
			done := make(chan struct{}, 8)
			m.OnTransition = func(i int, p Peer, state string) {
				mu.Lock()
				last = state
				mu.Unlock()
				done <- struct{}{}
			}
			tc.drive(h, m)
			// The hook runs in its own goroutine; let the driven
			// transitions land before asserting.
			for drained := false; !drained; {
				select {
				case <-done:
				case <-time.After(200 * time.Millisecond):
					drained = true
				}
			}
			if got := m.State(0); got != tc.wantState {
				t.Fatalf("State = %s, want %s", got, tc.wantState)
			}
			if got := m.Alive(0); got != tc.wantEligible {
				t.Fatalf("Alive = %v, want replica eligibility %v", got, tc.wantEligible)
			}
			mu.Lock()
			gotRejoin := last == StateAlive
			mu.Unlock()
			if gotRejoin != tc.wantRejoinHook {
				t.Fatalf("rejoin hook fired = %v (last transition %q), want %v",
					gotRejoin, last, tc.wantRejoinHook)
			}
		})
	}
}

// TestOwnerRendezvous: ownership is deterministic, reasonably balanced,
// and — the property failover relies on — removing one peer only moves
// that peer's keys (minimal disruption).
func TestOwnerRendezvous(t *testing.T) {
	peers := []Peer{{ID: "shard-0"}, {ID: "shard-1"}, {ID: "shard-2"}}
	counts := make([]int, len(peers))
	owners := make(map[store.Key]int)
	for i := 0; i < 300; i++ {
		k := store.KeyOf("cell", fmt.Sprint(i))
		o := Owners(peers, k, 1)[0]
		if o != Owners(peers, k, 1)[0] {
			t.Fatal("ownership is not deterministic")
		}
		owners[k] = o
		counts[o]++
	}
	for i, n := range counts {
		if n < 50 {
			t.Fatalf("peer %d owns only %d/300 keys: %v", i, n, counts)
		}
	}
	// Drop shard-1: its keys move, everyone else's stay put.
	reduced := []Peer{peers[0], peers[2]}
	for k, o := range owners {
		ro := Owners(reduced, k, 1)[0]
		if o == 1 {
			continue // the removed peer's range may land anywhere
		}
		want := 0
		if o == 2 {
			want = 1 // same peer, new index in the reduced slice
		}
		if ro != want {
			t.Fatalf("key of surviving peer %d moved to reduced index %d", o, ro)
		}
	}
	if got := Owners(nil, store.KeyOf("x"), 1); len(got) != 0 {
		t.Fatalf("empty peer set owns %v, want no owner", got)
	}
}
