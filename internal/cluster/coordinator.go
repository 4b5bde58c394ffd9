package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
)

// Config assembles a Coordinator.
type Config struct {
	// Peers are the shard daemons the ring hashes over.  Required
	// non-empty.
	Peers []Peer
	// Replicas is the replica-set size R: every cell lives on the top-R
	// peers by rendezvous score (0 or 1 = single-owner, PR 5 behavior).
	// Reads walk the set in rendezvous order; results the walk may have
	// computed fan out to the other R-1 members, so a dead peer's cells
	// survive it.
	Replicas int
	// FailThreshold demotes a peer after this many consecutive failures
	// (0 = 3).
	FailThreshold int
	// Client forwards cells (nil = a default resilient client).  Supply
	// one to tune retries/backoff or to splice in a chaos transport.
	Client *Client
	// WriteClient delivers replica-write fan-outs and hint redelivery
	// (nil = a two-attempt client sharing Client's transport).  Kept
	// separate from the read client so write traffic never competes for
	// read retries — and so the chaos determinism tests can keep the
	// seeded fault plan pinned to the read path.
	WriteClient *Client
	// Hints, if non-nil, enables hinted handoff: replica writes bound
	// for a dead peer are queued here and redelivered when membership
	// re-admits the peer as alive.
	Hints *HintQueue
	// CellTimeout bounds one replica's whole forward, retries included
	// (0 = 5m); past it the walk moves to the next replica.
	CellTimeout time.Duration
	// Logf, if non-nil, receives membership transitions and degrade
	// warnings.
	Logf func(format string, args ...any)
}

// Coordinator owns the cluster's data path: it rendezvous-hashes every
// cell's store key onto its replica set, walks the set in rendezvous
// order with the resilient client, verifies response checksums, fans
// the results it may have computed out to the remaining replicas
// (hinting the dead ones), and reports ok=false — falling back to the
// suite's local tiers — only when every replica of the cell is
// unreachable.  Install RunCell as harness.Suite.Remote.
type Coordinator struct {
	members     *Membership
	client      *Client
	writeClient *Client
	hints       *HintQueue
	replicas    int
	timeout     time.Duration
	logf        func(format string, args ...any)

	mu       sync.Mutex
	closed   bool
	replCh   chan replJob
	workerWG sync.WaitGroup

	forwards   *obs.CounterVec // peer
	fallbacks  *obs.CounterVec // reason
	badPayload *obs.Counter

	replWrites    *obs.CounterVec // peer (volatile: async timing)
	replErrors    *obs.Counter    // volatile
	replDrops     *obs.Counter    // volatile
	hintsQueued   *obs.CounterVec // peer (volatile)
	hintsDeliv    *obs.CounterVec // peer (volatile)
	hintsRequeued *obs.Counter    // volatile
}

// replJob is one queued replica write.
type replJob struct {
	peer Peer
	w    ReplicaWrite
}

// replQueueDepth bounds queued-but-undelivered replica writes; beyond
// it new fan-outs are dropped (and counted) rather than blocking the
// read path — anti-entropy repair re-converges whatever is dropped.
const replQueueDepth = 256

// NewCoordinator builds the coordinator and its membership tracker.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	client := cfg.Client
	if client == nil {
		client = &Client{}
	}
	writeClient := cfg.WriteClient
	if writeClient == nil {
		writeClient = &Client{Transport: client.Transport, Attempts: 2}
	}
	probe := &Client{Transport: client.Transport, AttemptTimeout: 10 * time.Second}
	timeout := cfg.CellTimeout
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(cfg.Peers) {
		replicas = len(cfg.Peers)
	}
	members := NewMembership(cfg.Peers, probe)
	members.FailThreshold = cfg.FailThreshold
	members.Logf = cfg.Logf
	co := &Coordinator{
		members:     members,
		client:      client,
		writeClient: writeClient,
		hints:       cfg.Hints,
		replicas:    replicas,
		timeout:     timeout,
		logf:        cfg.Logf,
	}
	members.OnTransition = co.onTransition
	if replicas > 1 {
		co.replCh = make(chan replJob, replQueueDepth)
		for i := 0; i < 2; i++ {
			co.workerWG.Add(1)
			go co.replWorker()
		}
	}
	return co, nil
}

// Attach registers the coordinator's obs families.  Forward, retry and
// fallback counts depend only on the key set and the (possibly
// chaotic) transport verdicts, so they are deterministic for a fixed
// seed under a serial sweep; replica-write fan-outs and hint traffic
// are asynchronous wall-clock races and live in Volatile families.
func (co *Coordinator) Attach(sink *obs.Sink) {
	reg := sink.Reg()
	if reg == nil {
		return
	}
	co.forwards = reg.NewCounterVec("cluster_forward_total",
		obs.Opts{Help: "cells served by a replica peer"}, "peer")
	co.fallbacks = reg.NewCounterVec("cluster_fallback_total",
		obs.Opts{Help: "cells recomputed locally because every replica was unreachable, by reason"}, "reason")
	co.badPayload = reg.NewCounter("cluster_bad_payload_total",
		obs.Opts{Help: "forwarded responses rejected by checksum or decode validation"})
	co.client.Retries = reg.NewCounter("cluster_retries_total",
		obs.Opts{Help: "forward attempts beyond the first"})
	co.replWrites = reg.NewCounterVec("cluster_replica_writes_total",
		obs.Opts{Help: "results fanned out to replica peers", Volatile: true}, "peer")
	co.replErrors = reg.NewCounter("cluster_replica_write_errors_total",
		obs.Opts{Help: "replica write fan-outs that failed delivery", Volatile: true})
	co.replDrops = reg.NewCounter("cluster_replica_write_drops_total",
		obs.Opts{Help: "replica writes dropped because the fan-out queue was full", Volatile: true})
	co.hintsQueued = reg.NewCounterVec("cluster_hints_queued_total",
		obs.Opts{Help: "replica writes parked as hints for a down peer", Volatile: true}, "peer")
	co.hintsDeliv = reg.NewCounterVec("cluster_hints_delivered_total",
		obs.Opts{Help: "hints redelivered to a re-admitted peer", Volatile: true}, "peer")
	co.hintsRequeued = reg.NewCounter("cluster_hints_requeued_total",
		obs.Opts{Help: "hint redeliveries that failed and were queued again", Volatile: true})
	co.writeClient.Retries = reg.NewCounter("cluster_replica_write_retries_total",
		obs.Opts{Help: "replica write attempts beyond the first", Volatile: true})
	co.members.Attach(sink)
}

// Members exposes the membership tracker (probing, health reporting).
func (co *Coordinator) Members() *Membership { return co.members }

// Replicas reports the effective replica-set size.
func (co *Coordinator) Replicas() int { return co.replicas }

// Run starts the background probe loop until ctx ends.
func (co *Coordinator) Run(ctx context.Context, probeInterval time.Duration) {
	co.members.ProbeAll(ctx) // correct the optimistic initial state immediately
	co.members.Run(ctx, probeInterval)
}

// Health reports the cluster's membership view for /healthz.
func (co *Coordinator) Health() *Health { return co.members.Health() }

// Close drains the replica-write fan-out: queued writes are delivered
// (or hinted) before it returns.  Further fan-outs are dropped.  Reads
// keep working — Close stops replication, not the coordinator.
func (co *Coordinator) Close() {
	co.mu.Lock()
	if !co.closed {
		co.closed = true
		if co.replCh != nil {
			close(co.replCh)
		}
	}
	co.mu.Unlock()
	co.workerWG.Wait()
}

// RunCell is the harness.Suite.Remote delegate: walk the cell's
// replica set in rendezvous order, or report ok=false so the suite
// recomputes locally.  cluster_fallback_total therefore fires only
// when every replica of the cell is dead or erroring — with R > 1 a
// single crashed shard costs zero local recomputes.  The executed flag
// reports whether the walk may have run the simulation: the serving
// peer answered fresh, or an attempt before its answer failed — a
// failed attempt may have computed the cell and lost the response, so
// a cached answer after one can be this walk's own result.  Exactly
// those answers fan out to the other replicas.
func (co *Coordinator) RunCell(c harness.SweepCell) (res *harness.Result, executed, ok bool) {
	// Resolve exactly as the suite's local path would, then strip the
	// process-local observability wiring: it never affects results and
	// must not ride the wire (CellStoreKey ignores it too).
	cfg := c.Config
	if c.Baseline {
		scale := cfg.Scale
		cfg = harness.Baseline()
		cfg.Scale = scale
	}
	cfg.Obs = nil
	cfg.ObsPID = 0

	key := harness.CellStoreKey(c.Workload, cfg)
	peers := co.members.Peers()
	set := Owners(peers, key, co.replicas)
	if len(set) == 0 {
		co.fallbacks.With("no_peers").Inc()
		return nil, false, false
	}

	req := CellRequest{Version: harness.ResultsVersion, Scale: cfg.Scale,
		Cell: harness.SweepCell{Workload: c.Workload, Config: cfg, Baseline: c.Baseline}}
	errored := false // an eligible replica was tried and failed
	for _, idx := range set {
		if !co.members.Alive(idx) {
			continue
		}
		var resp CellResponse
		ctx, cancel := context.WithTimeout(context.Background(), co.timeout)
		attempts, err := co.client.Do(ctx, Request{
			Method: http.MethodPost,
			URL:    peers[idx].URL() + "/v1/cells",
			Body:   req,
			Out:    &resp,
			Key:    key.String(),
			Check: func() error {
				sum := sha256.Sum256(resp.Result)
				if hex.EncodeToString(sum[:]) != resp.SHA256 {
					co.badPayload.Inc()
					return Retryable(fmt.Errorf("cluster: result checksum mismatch from %s", peers[idx].ID))
				}
				return nil
			},
		})
		cancel()
		if err != nil {
			co.members.ReportFailure(idx)
			errored = true
			continue
		}
		co.members.ReportSuccess(idx)
		var out harness.Result
		if err := json.Unmarshal(resp.Result, &out); err != nil {
			// The peer answered but the payload does not decode: count
			// it against payload validation, not against liveness, and
			// try the next replica.
			co.badPayload.Inc()
			errored = true
			continue
		}
		co.forwards.With(peers[idx].ID).Inc()
		executed := !resp.Cached || attempts > 1 || errored
		if executed {
			co.replicate(key.String(), resp, set, idx)
		}
		return &out, executed, true
	}
	reason := "dead"
	if errored {
		reason = "error"
	}
	co.fallbacks.With(reason).Inc()
	return nil, false, false
}

// replicate fans a cell this walk may have computed out to the other
// members of its replica set: alive peers get an asynchronous replica
// write, dead peers get a hint for redelivery at rejoin, and
// incompatible peers get nothing — their version-skewed stores could
// never serve the key.
func (co *Coordinator) replicate(key string, resp CellResponse, set []int, served int) {
	peers := co.members.Peers()
	w := ReplicaWrite{Version: harness.ResultsVersion, Key: key,
		SHA256: resp.SHA256, Result: resp.Result}
	for _, idx := range set {
		if idx == served {
			continue
		}
		switch co.members.State(idx) {
		case StateAlive:
			co.enqueueWrite(peers[idx], w)
		case StateDead:
			co.queueHint(peers[idx], w)
		}
	}
}

// enqueueWrite hands one replica write to the worker pool, dropping
// (and counting) it when the queue is full or replication is closed.
func (co *Coordinator) enqueueWrite(p Peer, w ReplicaWrite) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed || co.replCh == nil {
		co.replDrops.Inc()
		return
	}
	select {
	case co.replCh <- replJob{peer: p, w: w}:
	default:
		co.replDrops.Inc()
	}
}

// replWorker delivers queued replica writes until the channel closes.
func (co *Coordinator) replWorker() {
	defer co.workerWG.Done()
	for job := range co.replCh {
		if err := co.deliverWrite(job.peer, job.w); err != nil {
			co.replErrors.Inc()
			// The peer was alive when we enqueued.  A failed write counts
			// against its liveness like a failed forward, so a peer that
			// only ever receives writes is still seen dead; once it is,
			// the hint queue carries the write to its rejoin.
			idx := co.peerIndex(job.peer.ID)
			co.members.ReportFailure(idx)
			if co.members.State(idx) == StateDead {
				co.queueHint(job.peer, job.w)
			}
			continue
		}
		co.replWrites.With(job.peer.ID).Inc()
	}
}

// deliverWrite PUTs one cell into a replica's store.
func (co *Coordinator) deliverWrite(p Peer, w ReplicaWrite) error {
	ctx, cancel := context.WithTimeout(context.Background(), co.timeout)
	defer cancel()
	_, err := co.writeClient.Do(ctx, Request{
		Method: http.MethodPut,
		URL:    p.URL() + "/v1/store/cells/" + w.Key,
		Body:   w,
		Key:    w.Key,
	})
	return err
}

// peerIndex resolves a peer ID back to its ring index (-1 if unknown).
func (co *Coordinator) peerIndex(id string) int {
	for i, p := range co.members.Peers() {
		if p.ID == id {
			return i
		}
	}
	return -1
}

// queueHint parks an undeliverable replica write for redelivery.
func (co *Coordinator) queueHint(p Peer, w ReplicaWrite) {
	if co.hints == nil {
		return
	}
	co.hints.Add(p.ID, Hint{Key: w.Key, SHA256: w.SHA256, Result: w.Result})
	co.hintsQueued.With(p.ID).Inc()
}

// onTransition is the membership hook: a peer re-admitted as alive
// gets its queued hints redelivered.  Incompatible peers get nothing —
// the version-skew exclusion the membership tests pin down.
func (co *Coordinator) onTransition(i int, p Peer, state string) {
	if state != StateAlive || co.hints == nil {
		return
	}
	hints := co.hints.Drain(p.ID)
	if len(hints) == 0 {
		return
	}
	delivered := 0
	for _, h := range hints {
		w := ReplicaWrite{Version: harness.ResultsVersion, Key: h.Key,
			SHA256: h.SHA256, Result: h.Result}
		if err := co.deliverWrite(p, w); err != nil {
			// Back in the queue: the peer flapped, the next rejoin
			// redelivers.  The bound still applies, so a permanently
			// flapping peer cannot grow an unbounded backlog.
			co.hints.Add(p.ID, h)
			co.hintsRequeued.Inc()
			continue
		}
		delivered++
		co.hintsDeliv.With(p.ID).Inc()
	}
	if co.logf != nil && delivered > 0 {
		co.logf("cluster: redelivered %d/%d hints to rejoined peer %s", delivered, len(hints), p.ID)
	}
}
