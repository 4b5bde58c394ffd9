package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"axmemo/internal/cluster"
	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/server"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

// node is one in-process daemon wired the way cmd/axmemod wires it: a
// scale-1 suite with an always-on obs sink, an optional disk store, an
// optional cluster coordinator as the suite's remote tier, and the
// HTTP server on a loopback listener.
type node struct {
	suite  *harness.Suite
	sink   *obs.Sink
	store  *store.Store
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

type nodeOpts struct {
	storeDir string
	co       *cluster.Coordinator
	// remote, if set, replaces the suite's remote tier once the node's
	// store is open (traced runs time the layers through it).
	remote func(n *node) func(harness.SweepCell) (*harness.Result, bool, bool)
	// wrap, if set, wraps the server's handler (traced runs time it).
	wrap func(n *node, h http.Handler) http.Handler
}

func startNode(o nodeOpts) (*node, error) {
	n := &node{sink: obs.NewSink(), suite: harness.NewSuite(1), served: make(chan error, 1)}
	n.suite.Obs = n.sink
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir, 0)
		if err != nil {
			return nil, err
		}
		st.Attach(n.sink)
		n.suite.Store = st
		n.store = st
	}
	if o.co != nil {
		o.co.Attach(n.sink)
		n.suite.Remote = o.co.RunCell
	}
	if o.remote != nil {
		n.suite.Remote = o.remote(n)
	}
	n.srv = server.New(server.Config{Suite: n.suite, Cluster: o.co})
	h := n.srv.Handler()
	if o.wrap != nil {
		h = o.wrap(n, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if n.store != nil {
			n.store.Close()
		}
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: h}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// stop drains the node the way axmemod does on SIGTERM and closes its
// store.
func (n *node) stop() error {
	n.srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.served
	if derr := n.srv.Drain(ctx); err == nil {
		err = derr
	}
	if n.store != nil {
		if cerr := n.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// snapshot parses the node's live metrics (volatile families included).
func (n *node) snapshot() *obs.Snapshot {
	snap, err := obs.ParseSnapshot(n.sink.Reg().SnapshotJSON(obs.Everything))
	if err != nil {
		return nil
	}
	return snap
}

// clusterSet is `axmemod -cluster 2 -replicas 2 -store-dir D` built
// in-process: two shard daemons with their own disk stores, and a
// coordinator daemon with no store whose suite forwards every cell.
type clusterSet struct {
	shards []*node
	co     *cluster.Coordinator
	front  *node
	cancel context.CancelFunc
	probes chan struct{}
	// attempts counts forwarded cell attempts (traced runs only).
	attempts *atomic.Int64
	quiet    sync.Once
}

const shardCount, replicaCount = 2, 2

// startCluster assembles one cluster under dir; tl != nil instruments
// every layer seam for a traced run.
func startCluster(dir string, tl *spanLog) (*clusterSet, error) {
	cs := &clusterSet{probes: make(chan struct{})}
	var peers []cluster.Peer
	for i := 0; i < shardCount; i++ {
		o := nodeOpts{storeDir: filepath.Join(dir, fmt.Sprintf("shard-%d", i))}
		if tl != nil {
			o.remote = func(n *node) func(harness.SweepCell) (*harness.Result, bool, bool) {
				return tracedShardCell(tl, n)
			}
			o.wrap = func(_ *node, h http.Handler) http.Handler { return traceShardHandler(tl, h) }
		}
		n, err := startNode(o)
		if err != nil {
			cs.stop()
			return nil, err
		}
		cs.shards = append(cs.shards, n)
		peers = append(peers, cluster.Peer{ID: fmt.Sprintf("shard-%d", i), Addr: strings.TrimPrefix(n.url, "http://")})
	}
	hints, err := cluster.NewHintQueue(filepath.Join(dir, "hints"), 0)
	if err != nil {
		cs.stop()
		return nil, err
	}
	cfg := cluster.Config{Peers: peers, Replicas: replicaCount, Hints: hints}
	if tl != nil {
		tt := &timedTransport{l: tl, base: http.DefaultTransport}
		cfg.Client = &cluster.Client{Transport: tt}
		cs.attempts = &tt.attempts
	}
	if cs.co, err = cluster.NewCoordinator(cfg); err != nil {
		cs.stop()
		return nil, err
	}
	fo := nodeOpts{co: cs.co}
	if tl != nil {
		fo.remote = func(*node) func(harness.SweepCell) (*harness.Result, bool, bool) {
			return tracedRunCell(tl, cs.co)
		}
		fo.wrap = func(_ *node, h http.Handler) http.Handler {
			return traceHandler(tl, "coord.handler", "client", nil, h)
		}
	}
	if cs.front, err = startNode(fo); err != nil {
		cs.stop()
		return nil, err
	}
	// Membership: one synchronous probe round corrects the optimistic
	// initial view, then the background loop runs as in axmemod.
	ctx, cancel := context.WithCancel(context.Background())
	cs.cancel = cancel
	cs.co.Members().ProbeAll(ctx)
	go func() {
		defer close(cs.probes)
		cs.co.Members().Run(ctx, time.Second)
	}()
	return cs, nil
}

// quiesce stops the coordinator daemon and drains the replica fan-out
// (delivering queued writes); the shards keep serving.  Idempotent.
func (cs *clusterSet) quiesce() {
	cs.quiet.Do(func() {
		if cs.cancel != nil {
			cs.cancel()
			<-cs.probes
		}
		if cs.front != nil {
			cs.front.stop() //nolint:errcheck // teardown after measurement
		}
		if cs.co != nil {
			cs.co.Close()
		}
	})
}

// stop shuts the cluster down front to back.  The coordinator's idle
// connections are closed first: a shard's graceful shutdown would
// otherwise wait out each connection its client dialled but never used.
func (cs *clusterSet) stop() {
	cs.quiesce()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	for _, n := range cs.shards {
		n.stop() //nolint:errcheck
	}
}

// fsyncs totals the shards' store fsyncs.
func (cs *clusterSet) fsyncs() uint64 {
	var n uint64
	for _, s := range cs.shards {
		n += s.store.Stats().Fsyncs
	}
	return n
}

// ---- traced-run seams -------------------------------------------------

// traceHandler times every request of a traced operation through h as
// a span named name under the operation's parentLayer span.  enter, if
// set, runs at the start of each traced request.
func traceHandler(l *spanLog, name, parentLayer string, enter func(), h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o := l.reqOf(r)
		if o == nil {
			h.ServeHTTP(w, r)
			return
		}
		if enter != nil {
			enter()
		}
		sp := o.child(l, name, parentLayer, o.lane)
		h.ServeHTTP(w, r)
		sp.finish()
	})
}

// traceShardHandler times a shard's cell requests and replica writes.
func traceShardHandler(l *spanLog, h http.Handler) http.Handler {
	cells := traceHandler(l, "shard.handler", "cluster.attempt", nil, h)
	puts := traceHandler(l, "store.replica_put", "cluster.replica_write", nil, h)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/cells":
			cells.ServeHTTP(w, r)
		case r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/store/cells/"):
			puts.ServeHTTP(w, r)
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// timedTransport is the coordinator client's transport in traced runs:
// it times and counts every cell attempt and replica write.
type timedTransport struct {
	l        *spanLog
	base     http.RoundTripper
	attempts atomic.Int64
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	o := t.l.lookup(r.Header.Get(cluster.HeaderKey))
	if o == nil { // membership probes
		return t.base.RoundTrip(r)
	}
	name, lane := "cluster.attempt", o.lane
	if r.Method == http.MethodPut {
		name, lane = "cluster.replica_write", o.lane+2 // asynchronous: its own lane
	} else {
		t.attempts.Add(1)
	}
	sp := o.child(t.l, name, "cluster.runcell", lane)
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		sp.finish()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends an attempt's span when the client has read the answer.
type spanBody struct {
	io.ReadCloser
	sp   openSpan
	done atomic.Bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done.CompareAndSwap(false, true) {
		b.sp.finish()
	}
	return err
}

// tracedRunCell is the coordinator suite's remote tier in traced runs:
// Coordinator.RunCell, timed.
func tracedRunCell(l *spanLog, co *cluster.Coordinator) func(harness.SweepCell) (*harness.Result, bool, bool) {
	return func(c harness.SweepCell) (*harness.Result, bool, bool) {
		sp := l.lookup(cellKey(c)).child(l, "cluster.runcell", "coord.handler", -1)
		res, executed, ok := co.RunCell(c)
		sp.finish()
		return res, executed, ok
	}
}

// tracedShardCell is a shard suite's remote tier in traced runs: it
// performs the suite's own store-backed path — store.Get, harness.Run,
// store.Put, in the order the suite's loadOrRun uses — timing each.
// ok=false (a failed simulation) hands the cell back to the suite's
// local tiers, which reproduce the error.
func tracedShardCell(l *spanLog, n *node) func(harness.SweepCell) (*harness.Result, bool, bool) {
	return func(c harness.SweepCell) (*harness.Result, bool, bool) {
		w, err := workloads.ByName(c.Workload)
		if err != nil {
			return nil, false, false
		}
		key := harness.CellStoreKey(w.Name, c.Config)
		o := l.lookup(key.String())
		sp := o.child(l, "shard.cell", "shard.handler", -1)
		defer sp.finish()
		get := o.child(l, "store.get", "shard.cell", -1)
		res := new(harness.Result)
		hit := n.store.Get(key, res)
		get.finish()
		if hit {
			return res, false, true
		}
		run := o.child(l, "sim.run", "shard.cell", -1)
		res, err = harness.Run(w, c.Config)
		s := run.finish()
		if err != nil {
			return nil, false, false
		}
		l.addSim(s.dur(), res.Insns)
		put := o.child(l, "store.put", "shard.cell", -1)
		_ = n.store.Put(key, res) // best effort, as in the suite
		put.finish()
		return res, true, true
	}
}

// cellKey is the store key of a resolved sweep cell.
func cellKey(c harness.SweepCell) string {
	cfg := c.Config
	if c.Baseline {
		scale := cfg.Scale
		cfg = harness.Baseline()
		cfg.Scale = scale
	}
	return harness.CellStoreKey(c.Workload, cfg).String()
}
