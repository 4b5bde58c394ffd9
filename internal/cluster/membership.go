package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"axmemo/internal/obs"
)

// Peer membership states.  A peer starts alive (optimistically — the
// first probe round corrects that within one interval), is demoted to
// dead after FailThreshold consecutive probe or request failures, and
// is re-admitted by a successful probe only when its ResultsVersion
// matches ours; a version-skewed peer parks in incompatible, where its
// key range keeps falling back to local recompute until the operator
// upgrades it.
const (
	StateAlive        = "alive"
	StateDead         = "dead"
	StateIncompatible = "incompatible"
)

// Membership tracks the liveness and compatibility of a fixed peer
// set.  Probes are explicit (ProbeAll) or periodic (Run); the data
// path feeds request outcomes in through ReportFailure/ReportSuccess.
// All methods are safe for concurrent use.
type Membership struct {
	// FailThreshold is the consecutive-failure count that demotes an
	// alive peer to dead (0 = 3).
	FailThreshold int
	// Version is the ResultsVersion peers must report to be (re)admitted
	// (normally harness.ResultsVersion).
	Version int
	// Probe is the client used for /healthz probes; probes do not
	// retry — a failed probe IS the signal (Attempts forced to 1).
	Probe *Client
	// Logf, if non-nil, receives membership transitions.
	Logf func(format string, args ...any)
	// OnTransition, if non-nil, is invoked (in its own goroutine, so it
	// may do I/O) after a peer changes state.  The coordinator hangs
	// hinted-handoff redelivery here: a peer re-admitted as alive gets
	// its queued hints; a peer parked as incompatible gets nothing —
	// version-skewed stores must not receive our cells.
	OnTransition func(i int, p Peer, state string)

	mu    sync.Mutex
	peers []Peer
	state []peerState
	round int // probe round counter, gives each round a distinct chaos identity

	transitions *obs.CounterVec // peer, state
	degraded    *obs.Gauge
}

type peerState struct {
	state  string
	fails  int
	health HealthStatus // last successful probe body
}

// NewMembership tracks the given peers, expecting the given
// ResultsVersion from each.
func NewMembership(peers []Peer, version int, probe *Client) *Membership {
	if probe == nil {
		probe = &Client{}
	}
	probe.Attempts = 1
	m := &Membership{Version: version, Probe: probe, peers: peers,
		state: make([]peerState, len(peers))}
	for i := range m.state {
		m.state[i].state = StateAlive
	}
	return m
}

// Attach registers the membership families: peer state transitions
// (counter, deterministic when probes run at deterministic points) and
// the cluster_degraded gauge (peers currently not alive).
func (m *Membership) Attach(sink *obs.Sink) {
	reg := sink.Reg()
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.transitions = reg.NewCounterVec("cluster_peer_transitions_total",
		obs.Opts{Help: "peer membership transitions, by peer and new state"}, "peer", "state")
	m.degraded = reg.NewGauge("cluster_degraded",
		obs.Opts{Help: "peers currently dead or incompatible (0 = full strength)"})
}

// Peers returns the fixed peer set (the ring hashes over all of them,
// alive or not).
func (m *Membership) Peers() []Peer { return m.peers }

func (m *Membership) threshold() int {
	if m.FailThreshold <= 0 {
		return 3
	}
	return m.FailThreshold
}

// Alive reports whether peer i is currently serving its key range.
func (m *Membership) Alive(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return i >= 0 && i < len(m.state) && m.state[i].state == StateAlive
}

// ReplicaEligible reports whether peer i may hold replicas of our
// cells: it must be alive AND version-compatible.  A rejoining peer
// with a mismatched ResultsVersion is parked incompatible, which
// excludes it from replica reads, write fan-out, and hint redelivery
// alike — its keys could never match ours, so sending it cells would
// only waste its disk and our bandwidth.  (Today this coincides with
// Alive, because version skew always parks a peer in its own state;
// the separate name pins the contract the membership tests assert.)
func (m *Membership) ReplicaEligible(i int) bool {
	return m.Alive(i)
}

// State returns peer i's current membership state ("" out of range).
func (m *Membership) State(i int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.state) {
		return ""
	}
	return m.state[i].state
}

// transitionLocked moves peer i to state, publishing the transition.
func (m *Membership) transitionLocked(i int, state, why string) {
	if m.state[i].state == state {
		return
	}
	m.state[i].state = state
	m.transitions.With(m.peers[i].ID, state).Inc()
	degraded := 0
	for _, s := range m.state {
		if s.state != StateAlive {
			degraded++
		}
	}
	m.degraded.Set(float64(degraded))
	if m.Logf != nil {
		m.Logf("cluster: peer %s (%s) -> %s (%s)", m.peers[i].ID, m.peers[i].Addr, state, why)
	}
	if m.OnTransition != nil {
		// Own goroutine: the hook does I/O (hint redelivery) and must
		// neither hold the membership lock nor delay the caller's path.
		go m.OnTransition(i, m.peers[i], state)
	}
}

// ReportFailure records a data-path failure against peer i (one per
// forward that exhausted its retries); crossing the threshold demotes
// an alive peer to dead without waiting for the next probe round.
func (m *Membership) ReportFailure(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.state) {
		return
	}
	m.state[i].fails++
	if m.state[i].state == StateAlive && m.state[i].fails >= m.threshold() {
		m.transitionLocked(i, StateDead, fmt.Sprintf("%d consecutive failures", m.state[i].fails))
	}
}

// ReportSuccess resets peer i's consecutive-failure count.
func (m *Membership) ReportSuccess(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.state) {
		return
	}
	m.state[i].fails = 0
}

// ProbeAll runs one synchronous probe round: GET /healthz on every
// peer.  Success re-admits dead peers whose ResultsVersion matches and
// refreshes the cached health body; mismatched versions park the peer
// in incompatible; failures count toward the threshold.
func (m *Membership) ProbeAll(ctx context.Context) {
	m.mu.Lock()
	m.round++
	round := m.round
	peers := m.peers
	m.mu.Unlock()

	for i, p := range peers {
		var hs HealthStatus
		_, err := m.Probe.Do(ctx, Request{
			Method: http.MethodGet,
			URL:    p.URL() + "/healthz",
			Out:    &hs,
			Key:    "healthz/" + p.ID,
			// Distinct attempt identity per round, so a chaotic transport
			// does not freeze one verdict onto every probe of a peer.
			AttemptBase: round * 1000,
		})
		m.mu.Lock()
		switch {
		case err != nil:
			m.state[i].fails++
			if m.state[i].state == StateAlive && m.state[i].fails >= m.threshold() {
				m.transitionLocked(i, StateDead, "healthz probe failures reached threshold")
			}
		case hs.ResultsVersion != m.Version:
			m.state[i].fails = 0
			m.state[i].health = hs
			m.transitionLocked(i, StateIncompatible,
				fmt.Sprintf("ResultsVersion %d, want %d", hs.ResultsVersion, m.Version))
		default:
			m.state[i].fails = 0
			m.state[i].health = hs
			m.transitionLocked(i, StateAlive, "healthz ok, versions match")
		}
		m.mu.Unlock()
	}
}

// Run probes every interval until ctx is canceled (the daemon's
// background health checker).
func (m *Membership) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.ProbeAll(ctx)
		}
	}
}

// Degraded counts peers not currently alive.
func (m *Membership) Degraded() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.state {
		if s.state != StateAlive {
			n++
		}
	}
	return n
}

// Health snapshots every peer's membership record.
func (m *Membership) Health() *Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := &Health{Peers: make([]PeerHealth, len(m.peers))}
	for i, p := range m.peers {
		s := m.state[i]
		if s.state != StateAlive {
			h.Degraded++
		}
		h.Peers[i] = PeerHealth{
			ID: p.ID, Addr: p.Addr, State: s.state, Failures: s.fails,
			ResultsVersion: s.health.ResultsVersion,
			StoreEntries:   s.health.StoreEntries,
			StoreBytes:     s.health.StoreBytes,
		}
	}
	return h
}

// String renders a compact operator view ("2/3 alive").
func (m *Membership) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	alive := 0
	for _, s := range m.state {
		if s.state == StateAlive {
			alive++
		}
	}
	return strconv.Itoa(alive) + "/" + strconv.Itoa(len(m.peers)) + " alive"
}
