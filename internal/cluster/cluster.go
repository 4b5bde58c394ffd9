// Package cluster federates axmemod daemons into a fault-tolerant
// replicated result cluster.  A coordinator rendezvous-hashes every
// sweep cell's content address onto its top-R replica set (a pure
// function of the peer set and the key), walks the set in rendezvous
// order over HTTP, and fans freshly computed results out to the other
// replicas — so a dead peer's cells survive it on its replica
// siblings.  Because a cell is a pure function of its key — PR 4's
// content-addressed store contract — recomputation is always a safe
// fallback: only when EVERY replica of a cell is unreachable does the
// coordinator degrade to local recompute, and it never fails a
// request.
//
// The package's parts:
//
//   - Client (client.go): a resilient HTTP/JSON client with
//     per-attempt timeouts, capped exponential backoff with seeded
//     jitter and 429 Retry-After honoring.
//
//   - Membership (membership.go): health-checked peer tracking.
//     Periodic /healthz probes with a consecutive-failure threshold
//     demote peers to dead; a rejoining peer is re-admitted only if
//     its ResultsVersion matches the coordinator's, otherwise it is
//     parked as incompatible — excluded from replica reads, write
//     fan-out, and hint redelivery alike.
//
//   - Coordinator (coordinator.go): the Suite.Remote delegate that
//     owns the ring, walks replica sets, verifies response checksums,
//     fans results the walk may have computed out to the remaining
//     replicas, and falls back to local recompute when no replica can
//     answer.
//
//   - HintQueue (hints.go): hinted handoff.  Replica writes bound for
//     a down peer park in a bounded, disk-backed per-peer queue and
//     are redelivered when membership re-admits the peer.
//
//   - Repair (repair.go): anti-entropy rejoin repair.  A restarted
//     peer diffs its store manifest (GET /v1/store/manifest) against
//     its replica peers and pulls the cells it missed while dead,
//     before reporting healthy.
//
// Every peer must report this build's harness.ResultsVersion; nothing
// configures another.  The seeded fault-injection transport the e2e
// tests drive the cluster through (Chaos: drops, delays, corruption and
// peer kills keyed by a hash of seed, peer, request key and attempt) is
// test code, in chaos_transport_test.go.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"sort"

	"axmemo/internal/harness"
	"axmemo/internal/store"
)

// Peer identifies one shard daemon of the cluster.
type Peer struct {
	// ID is the stable name used in metrics, health reports, and the
	// rendezvous hash (e.g. "shard-0").
	ID string `json:"id"`
	// Addr is the peer's base URL host:port (no scheme).
	Addr string `json:"addr"`
}

// URL returns the peer's base URL.
func (p Peer) URL() string { return "http://" + p.Addr }

// Owners rendezvous-hashes a store key onto its replica set: every peer
// scores hash(peerID, key), and the top-r peers by score, highest first,
// hold (or receive) copies of the cell; Owners(...)[0] is the primary.
// The set is a pure function of the full peer set and the key — it
// ignores liveness on purpose, so a dead peer's key range is NOT
// re-sharded onto survivors (which would silently shift load and cold
// caches) — and because scores depend only on peer IDs, every node that
// knows the ID list computes the same set regardless of address or
// enumeration order.  r is clamped to [1, len(peers)]; an empty peer
// list yields an empty set.
func Owners(peers []Peer, key store.Key, r int) []int {
	if len(peers) == 0 {
		return nil
	}
	if r < 1 {
		r = 1
	}
	if r > len(peers) {
		r = len(peers)
	}
	type scored struct {
		i int
		s uint64
	}
	scores := make([]scored, len(peers))
	for i, p := range peers {
		h := sha256.New()
		h.Write([]byte(p.ID))
		h.Write(key[:])
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		scores[i] = scored{i, binary.BigEndian.Uint64(sum[:8])}
	}
	// Ties (astronomically unlikely) break toward the lower index so
	// the order stays deterministic regardless of enumeration order.
	sort.Slice(scores, func(a, b int) bool {
		if scores[a].s != scores[b].s {
			return scores[a].s > scores[b].s
		}
		return scores[a].i < scores[b].i
	})
	out := make([]int, r)
	for i := 0; i < r; i++ {
		out[i] = scores[i].i
	}
	return out
}

// Wire types of the peer-to-peer protocol.  Shards expose POST
// /v1/cells (internal/server.handleCell); coordinators call it through
// Client.  Everything is plain JSON over HTTP — no new dependencies.

// CellRequest asks a peer to execute (or serve from its store) one
// fully resolved sweep cell.  Version and Scale pin the compatibility
// contract: a peer whose ResultsVersion or input scale differs answers
// 409 and the coordinator recomputes locally rather than mixing
// results from different physics.
type CellRequest struct {
	Version int               `json:"results_version"`
	Scale   int               `json:"scale"`
	Cell    harness.SweepCell `json:"cell"`
}

// CellResponse carries one cell's result back.  SHA256 covers the raw
// Result bytes, so a payload corrupted in flight (or by a chaotic
// transport) is detected by the client and retried instead of being
// merged into figures.
type CellResponse struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	SHA256 string          `json:"result_sha256"`
	Result json.RawMessage `json:"result"`
}

// ReplicaWrite pushes one already-computed cell into a replica's store
// (PUT /v1/store/cells/{key}): the asynchronous write fan-out and the
// hinted-handoff redelivery both use it.  The receiver verifies the
// checksum and version before storing; it never executes anything.
type ReplicaWrite struct {
	Version int             `json:"results_version"`
	Key     string          `json:"key"`
	SHA256  string          `json:"result_sha256"`
	Result  json.RawMessage `json:"result"`
}

// Manifest is the GET /v1/store/manifest response: the peer's full
// sorted-by-key store entry table (keys and sizes only, served from
// memory, so it is cheap).  A rejoining peer diffs manifests against
// its replica peers and pulls the cells it is missing before reporting
// healthy.  ResultsVersion lets the differ skip version-skewed peers
// outright: their keys could never match ours.
type Manifest struct {
	ResultsVersion int                   `json:"results_version"`
	Entries        []store.ManifestEntry `json:"entries"`
}

// HealthStatus is the /healthz response body.  Peers and operators use
// ResultsVersion to detect version skew before exchanging cells, and
// the store counts to see cache population at a glance.  A clustered
// coordinator additionally reports per-peer membership state.
type HealthStatus struct {
	// Status is "ok", or "degraded" when any peer is down or the store
	// has dropped to its memory-only tier.  The endpoint still answers
	// 200: degraded is an operating mode, not an outage.
	Status         string `json:"status"`
	ResultsVersion int    `json:"results_version"`
	StoreEntries   int    `json:"store_entries"`
	StoreBytes     int64  `json:"store_bytes"`
	StoreDegraded  bool   `json:"store_degraded,omitempty"`
	// RepairPulled counts cells this daemon pulled from replica peers
	// during its last rejoin repair (0 when it never repaired).  While a
	// repair is still running /healthz answers 503 with status
	// "repairing", so membership keeps the peer out of replica sets
	// until its store is caught up.
	RepairPulled int     `json:"repair_pulled,omitempty"`
	Cluster      *Health `json:"cluster,omitempty"`
}

// Health is the coordinator's view of its peers.
type Health struct {
	// Degraded counts peers not currently alive.
	Degraded int          `json:"degraded"`
	Peers    []PeerHealth `json:"peers"`
}

// PeerHealth is one peer's membership record.
type PeerHealth struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Failures is the current consecutive probe/request failure count.
	Failures int `json:"failures,omitempty"`
	// ResultsVersion, StoreEntries, StoreBytes and RepairPulled mirror
	// the peer's last successful /healthz body.
	ResultsVersion int   `json:"results_version,omitempty"`
	StoreEntries   int   `json:"store_entries,omitempty"`
	StoreBytes     int64 `json:"store_bytes,omitempty"`
	RepairPulled   int   `json:"repair_pulled,omitempty"`
}
