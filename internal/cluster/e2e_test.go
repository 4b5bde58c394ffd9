package cluster_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"axmemo/internal/cluster"
	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/server"
)

// shard is one in-process peer daemon: a suite with its own sink behind
// a real HTTP server.
type shard struct {
	suite *harness.Suite
	ts    *httptest.Server
}

func newShard(t *testing.T) *shard {
	t.Helper()
	s := harness.NewSuite(1)
	s.Parallel = 2
	s.Obs = obs.NewSink()
	srv := server.New(server.Config{Suite: s})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &shard{suite: s, ts: ts}
}

func (s *shard) addr() string { return strings.TrimPrefix(s.ts.URL, "http://") }

func execCount(s *harness.Suite) uint64 {
	return s.Obs.Reg().NewCounter("harness_cell_exec_total", obs.Opts{}).Value()
}

// noSleep skips retry backoff so chaotic tests stay fast and free of
// wall-clock effects.
func noSleep(ctx context.Context, d time.Duration) error { return nil }

// reference figures are computed once per test binary: a serial
// single-node sweep that every cluster variant must match byte for
// byte.
var (
	refOnce  sync.Once
	refTexts map[string]string
	refExecs map[string]uint64
)

func reference(t *testing.T, figIDs ...string) (text string, execs uint64) {
	t.Helper()
	refOnce.Do(func() {
		refTexts = make(map[string]string)
		refExecs = make(map[string]uint64)
		for _, id := range []string{"ABL-RATE", "ABL-ADAPT"} {
			s := harness.NewSuite(1)
			s.Parallel = 1
			s.Obs = obs.NewSink()
			fig, err := s.Generate(id)
			if err != nil {
				t.Fatalf("reference %s: %v", id, err)
			}
			refTexts[id] = fig.String()
			refExecs[id] = execCount(s)
		}
	})
	for _, id := range figIDs {
		txt, ok := refTexts[id]
		if !ok {
			t.Fatalf("no reference for %s", id)
		}
		text += txt
		execs += refExecs[id]
	}
	return text, execs
}

// coordSuite wires a coordinator suite over the given peers and returns
// its sink for metric assertions.
func coordSuite(t *testing.T, co *cluster.Coordinator, parallel int) (*harness.Suite, *obs.Sink) {
	t.Helper()
	sink := obs.NewSink()
	co.Attach(sink)
	s := harness.NewSuite(1)
	s.Parallel = parallel
	s.Obs = sink
	s.Remote = co.RunCell
	return s, sink
}

func forwardSum(sink *obs.Sink, peers []cluster.Peer) uint64 {
	vec := sink.Reg().NewCounterVec("cluster_forward_total", obs.Opts{}, "peer")
	var n uint64
	for _, p := range peers {
		n += vec.With(p.ID).Value()
	}
	return n
}

// TestClusterMatchesSingleNode: a 3-shard cluster renders the exact
// bytes a single node renders, the coordinator itself simulates
// nothing, and a second (cold-cache) coordinator over the same warm
// shards gets the whole figure with zero simulations anywhere.
func TestClusterMatchesSingleNode(t *testing.T) {
	refText, refExec := reference(t, "ABL-RATE")

	shards := []*shard{newShard(t), newShard(t), newShard(t)}
	peers := make([]cluster.Peer, len(shards))
	for i, sh := range shards {
		peers[i] = cluster.Peer{ID: "shard-" + string(rune('0'+i)), Addr: sh.addr()}
	}
	co, err := cluster.NewCoordinator(cluster.Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	suite, sink := coordSuite(t, co, 2)

	fig, err := suite.Generate("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	if fig.String() != refText {
		t.Fatalf("cluster figure differs from single node:\n--- single ---\n%s--- cluster ---\n%s",
			refText, fig.String())
	}
	if got := execCount(suite); got != 0 {
		t.Fatalf("coordinator simulated %d cells itself, want 0 (all forwarded)", got)
	}
	var shardExec uint64
	for _, sh := range shards {
		shardExec += execCount(sh.suite)
	}
	if shardExec != refExec {
		t.Fatalf("shards executed %d cells, want %d", shardExec, refExec)
	}
	if got := forwardSum(sink, peers); got != refExec {
		t.Fatalf("cluster_forward_total = %d, want %d", got, refExec)
	}
	if co.Members().Degraded() != 0 {
		t.Fatal("healthy cluster reports degraded peers")
	}

	// Warm cluster: a brand-new coordinator (empty local cache) must
	// answer the same figure without a single simulation anywhere.
	co2, err := cluster.NewCoordinator(cluster.Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	suite2, _ := coordSuite(t, co2, 2)
	fig2, err := suite2.Generate("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	if fig2.String() != refText {
		t.Fatal("warm cluster rendered different bytes")
	}
	if got := execCount(suite2); got != 0 {
		t.Fatalf("warm sweep simulated %d cells on the coordinator", got)
	}
	var shardExec2 uint64
	for _, sh := range shards {
		shardExec2 += execCount(sh.suite)
	}
	if shardExec2 != shardExec {
		t.Fatalf("warm sweep re-executed cells on shards: %d -> %d", shardExec, shardExec2)
	}
}

// TestClusterMissingPeer: with one of three peers unreachable, the
// sweep still completes byte-identical — the dead peer's key range is
// recomputed locally — and membership reports the cluster degraded.
func TestClusterMissingPeer(t *testing.T) {
	refText, _ := reference(t, "ABL-RATE")

	peers := []cluster.Peer{{ID: "shard-0"}, {ID: "shard-1"}, {ID: "shard-2"}}
	// The dead peer must own part of the sweep's key range, whatever
	// the keys hash to: it is the owner of the sweep's first cell.
	cells, err := harness.SweepCells("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	first := cells[0].Config
	if cells[0].Baseline {
		first = harness.Baseline()
	}
	first.Scale = 1
	deadIdx := cluster.Owners(peers, harness.CellStoreKey(cells[0].Workload, first), 1)[0]
	for i := range peers {
		sh := newShard(t)
		peers[i].Addr = sh.addr()
		if i == deadIdx {
			// Listed but not listening: its httptest server is closed
			// before the sweep, so connections are refused.
			sh.ts.Close()
		}
	}
	co, err := cluster.NewCoordinator(cluster.Config{
		Peers:         peers,
		FailThreshold: 1,
		Client:        &cluster.Client{Attempts: 2, Sleep: noSleep},
	})
	if err != nil {
		t.Fatal(err)
	}
	suite, sink := coordSuite(t, co, 1)

	fig, err := suite.Generate("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	if fig.String() != refText {
		t.Fatalf("degraded cluster rendered different bytes:\n--- single ---\n%s--- cluster ---\n%s",
			refText, fig.String())
	}
	if co.Members().Degraded() != 1 {
		t.Fatalf("Degraded = %d, want 1", co.Members().Degraded())
	}
	if st := co.Health().Peers[deadIdx].State; st != cluster.StateDead {
		t.Fatalf("dead peer state = %s", st)
	}
	fallbacks := sink.Reg().NewCounterVec("cluster_fallback_total", obs.Opts{}, "reason")
	if fallbacks.With("error").Value() == 0 {
		t.Fatal("no error fallback recorded for the dead peer's first key")
	}
	if execCount(suite) == 0 {
		t.Fatal("coordinator never recomputed the dead peer's range locally")
	}
	// The probe loop sees the same thing the data path saw.
	co.Members().ProbeAll(context.Background())
	if co.Members().Degraded() != 1 {
		t.Fatal("probe round resurrected an unreachable peer")
	}
}

// hostRewriter gives peers stable fake hostnames so chaos decisions —
// keyed on the host — do not depend on the ephemeral ports httptest
// picked, making whole runs reproducible.
type hostRewriter struct{ real map[string]string }

func (h hostRewriter) RoundTrip(r *http.Request) (*http.Response, error) {
	r2 := r.Clone(r.Context())
	if real, ok := h.real[r2.URL.Host]; ok {
		r2.URL.Host = real
	}
	return http.DefaultTransport.RoundTrip(r2)
}

// chaosRun is one full chaotic cluster sweep and everything observable
// about it.
type chaosRun struct {
	text     string
	snapshot []byte
	retries  uint64
	degraded float64
	health   *cluster.Health
}

// runChaoticSweep builds a fresh 3-shard cluster behind a seeded chaos
// transport (drops + corruption, plus a request-count fuse that kills
// one shard mid-sweep) and runs a serial sweep over two figures.
func runChaoticSweep(t *testing.T, seed int64) chaosRun {
	t.Helper()
	shards := []*shard{newShard(t), newShard(t), newShard(t)}
	hosts := hostRewriter{real: make(map[string]string)}
	peers := make([]cluster.Peer, len(shards))
	for i, sh := range shards {
		stable := "shard-" + string(rune('0'+i)) + ".chaos"
		hosts.real[stable] = sh.addr()
		peers[i] = cluster.Peer{ID: "shard-" + string(rune('0'+i)), Addr: stable}
	}

	chaos := cluster.NewChaos(cluster.ChaosPlan{
		Seed:        seed,
		DropRate:    0.25,
		CorruptRate: 0.25,
	}, hosts)
	// One more request to shard-1, then it is gone: a crash mid-sweep.
	chaos.KillAfter("shard-1.chaos", 1)

	co, err := cluster.NewCoordinator(cluster.Config{
		Peers:         peers,
		FailThreshold: 1,
		Client:        &cluster.Client{Transport: chaos, Sleep: noSleep, Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	suite, sink := coordSuite(t, co, 1) // serial: request order is the cell order
	chaos.Attach(sink)

	var text string
	figs := []string{"ABL-RATE", "ABL-ADAPT"}
	if err := suite.Prewarm(1, figs...); err != nil {
		t.Fatal(err)
	}
	for _, id := range figs {
		fig, err := suite.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		text += fig.String()
	}
	return chaosRun{
		text:     text,
		snapshot: sink.Reg().SnapshotJSON(obs.Deterministic),
		retries:  sink.Reg().NewCounter("cluster_retries_total", obs.Opts{}).Value(),
		degraded: sink.Reg().NewGauge("cluster_degraded", obs.Opts{}).Value(),
		health:   co.Health(),
	}
}

// replicaRun is one replicated chaotic sweep and everything
// deterministic about it.
type replicaRun struct {
	text      string
	snapshot  []byte
	fallbacks uint64
	served    uint64
	coordExec uint64
}

// runReplicatedChaoticSweep builds a 3-shard cluster (each shard with
// its own disk store) behind a seeded chaos transport whose
// request-count fuse kills shard-1 mid-sweep, coordinates with R=2,
// and runs a serial sweep over two figures.  Replica writes and hint
// redelivery ride a separate non-chaotic write client, so the seeded
// fault plan stays pinned to the deterministic read path.
func runReplicatedChaoticSweep(t *testing.T, seed int64) replicaRun {
	t.Helper()
	shards := []*storeShard{newStoreShard(t), newStoreShard(t), newStoreShard(t)}
	hosts := hostRewriter{real: make(map[string]string)}
	peers := make([]cluster.Peer, len(shards))
	for i, sh := range shards {
		stable := "shard-" + string(rune('0'+i)) + ".chaos"
		hosts.real[stable] = sh.addr()
		peers[i] = cluster.Peer{ID: "shard-" + string(rune('0'+i)), Addr: stable}
	}

	chaos := cluster.NewChaos(cluster.ChaosPlan{
		Seed:        seed,
		DropRate:    0.2,
		CorruptRate: 0.2,
	}, hosts)
	chaos.KillAfter("shard-1.chaos", 1)

	hints, err := cluster.NewHintQueue("", 0)
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.NewCoordinator(cluster.Config{
		Peers:         peers,
		Replicas:      2,
		FailThreshold: 2,
		Client:        &cluster.Client{Transport: chaos, Sleep: noSleep, Seed: seed},
		WriteClient:   &cluster.Client{Transport: hosts, Attempts: 2, Sleep: noSleep},
		Hints:         hints,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	suite, sink := coordSuite(t, co, 1) // serial: request order is the cell order
	chaos.Attach(sink)

	var text string
	figs := []string{"ABL-RATE", "ABL-ADAPT"}
	if err := suite.Prewarm(1, figs...); err != nil {
		t.Fatal(err)
	}
	for _, id := range figs {
		fig, err := suite.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		text += fig.String()
	}
	fallbacks := sink.Reg().NewCounterVec("cluster_fallback_total", obs.Opts{}, "reason")
	outcomes := sink.Reg().NewCounterVec("harness_remote_cells_total", obs.Opts{}, "outcome")
	return replicaRun{
		text:     text,
		snapshot: sink.Reg().SnapshotJSON(obs.Deterministic),
		fallbacks: fallbacks.With("dead").Value() +
			fallbacks.With("error").Value() + fallbacks.With("no_peers").Value(),
		served:    outcomes.With("served").Value(),
		coordExec: execCount(suite),
	}
}

// TestClusterReplicaReadDeterministicSweep is the replication
// acceptance test: with R=2, a chaotic transport, and one shard killed
// mid-sweep, the sweep completes byte-identical to a single node, and
// the whole deterministic telemetry is byte-identical between two
// same-seed runs.  At seed 11 it does so with ZERO local recomputes —
// the killed shard's key range is served by its replica siblings, so
// cluster_fallback_total never fires.  The zero holds per seed: seed
// 11 has zero fallbacks; seeds 1 and 2 each fall back once, when the
// dead shard's cell has one live replica and all 4 of its attempts
// fail.
func TestClusterReplicaReadDeterministicSweep(t *testing.T) {
	refText, _ := reference(t, "ABL-RATE", "ABL-ADAPT")

	run1 := runReplicatedChaoticSweep(t, 11)
	run2 := runReplicatedChaoticSweep(t, 11)

	if run1.text != refText {
		t.Fatalf("replicated chaotic sweep rendered different bytes than a single node:\n--- single ---\n%s--- cluster ---\n%s",
			refText, run1.text)
	}
	if run2.text != run1.text {
		t.Fatal("two identically seeded replicated sweeps rendered different bytes")
	}
	if !bytes.Equal(run1.snapshot, run2.snapshot) {
		t.Fatalf("deterministic metric snapshots differ between identically seeded runs:\n--- run1 ---\n%s\n--- run2 ---\n%s",
			run1.snapshot, run2.snapshot)
	}
	// The replication payoff: a dead shard costs zero local recomputes.
	if run1.fallbacks != 0 {
		t.Fatalf("cluster_fallback_total = %d, want 0 (replicas must cover the killed shard)", run1.fallbacks)
	}
	if run1.coordExec != 0 {
		t.Fatalf("coordinator simulated %d cells itself, want 0", run1.coordExec)
	}
	if run1.served == 0 {
		t.Fatal("harness_remote_cells_total{served} never incremented")
	}
}

// TestClusterFanOutAfterFailedAttempt: a replica can compute a cell
// and lose the response on the way back (here: a seeded chaos plan
// that only corrupts responses, so every failed attempt reached its
// peer).  The retry is then answered from that replica's cache, and
// the cell must still fan out to its other replica, and RunCell must
// still report that the simulation ran.  With R=2 over three shards,
// every cell of the sweep ends up in exactly two stores, and executed
// is true exactly for the calls during which some shard simulated.
func TestClusterFanOutAfterFailedAttempt(t *testing.T) {
	shards := []*storeShard{newStoreShard(t), newStoreShard(t), newStoreShard(t)}
	hosts := hostRewriter{real: make(map[string]string)}
	peers := make([]cluster.Peer, len(shards))
	for i, sh := range shards {
		stable := "shard-" + string(rune('0'+i)) + ".chaos"
		hosts.real[stable] = sh.addr()
		peers[i] = cluster.Peer{ID: "shard-" + string(rune('0'+i)), Addr: stable}
	}
	const seed = 5
	chaos := cluster.NewChaos(cluster.ChaosPlan{Seed: seed, CorruptRate: 0.3}, hosts)
	retries := &obs.Counter{}
	co, err := cluster.NewCoordinator(cluster.Config{
		Peers:    peers,
		Replicas: 2,
		// No demotions: both replicas of every cell stay alive, so
		// every fan-out is a write, never a hint.
		FailThreshold: 1 << 20,
		Client:        &cluster.Client{Transport: chaos, Sleep: noSleep, Seed: seed, Retries: retries},
		WriteClient:   &cluster.Client{Transport: hosts, Attempts: 2, Sleep: noSleep},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := harness.SweepCells("ABL-RATE", "ABL-ADAPT")
	if err != nil {
		t.Fatal(err)
	}
	execs := func() (n uint64) {
		for _, sh := range shards {
			n += execCount(sh.suite)
		}
		return n
	}
	for _, c := range cells {
		before := execs()
		if _, executed, ok := co.RunCell(c); !ok {
			t.Fatalf("cell %s/%s fell back", c.Workload, c.Config.Name)
		} else if ran := execs() > before; executed != ran {
			t.Fatalf("cell %s/%s: RunCell reported executed=%v, but a shard simulated during the call: %v",
				c.Workload, c.Config.Name, executed, ran)
		}
	}
	co.Close() // drains the replica writes
	if retries.Value() == 0 {
		t.Fatal("chaos plan corrupted no response: the test exercises nothing")
	}
	var entries int
	for _, sh := range shards {
		entries += sh.st.Stats().Entries
	}
	if want := 2 * len(cells); entries != want {
		t.Fatalf("replica stores hold %d cells, want %d (%d cells on R=2)", entries, want, len(cells))
	}
}

// TestClusterStorelessShardsTakeReplicaWrites: a shard without a store
// directory holds its cells in a memory-only store and takes replica
// writes like any other.  Two such shards at R=2 serve the ABL-RATE
// and ABL-ADAPT cells: no replica write fails, both peers stay alive,
// and each shard holds every cell — its own and its replica copies.
func TestClusterStorelessShardsTakeReplicaWrites(t *testing.T) {
	shards := []*shard{newShard(t), newShard(t)}
	peers := make([]cluster.Peer, len(shards))
	for i, sh := range shards {
		peers[i] = cluster.Peer{ID: "shard-" + string(rune('0'+i)), Addr: sh.addr()}
	}
	co, err := cluster.NewCoordinator(cluster.Config{Peers: peers, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	co.Attach(sink)
	cells, err := harness.SweepCells("ABL-RATE", "ABL-ADAPT")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if _, _, ok := co.RunCell(c); !ok {
			t.Fatalf("cell %s/%s fell back", c.Workload, c.Config.Name)
		}
	}
	co.Close() // drains the replica writes

	if n := sink.Reg().NewCounter("cluster_replica_write_errors_total", obs.Opts{}).Value(); n != 0 {
		t.Fatalf("%d replica writes failed, want 0", n)
	}
	if got := forwardSum(sink, peers); got != uint64(len(cells)) {
		t.Fatalf("cluster_forward_total = %d, want %d", got, len(cells))
	}
	writes := sink.Reg().NewCounterVec("cluster_replica_writes_total", obs.Opts{}, "peer")
	var delivered uint64
	for i, p := range peers {
		delivered += writes.With(p.ID).Value()
		if st := co.Health().Peers[i].State; st != cluster.StateAlive {
			t.Fatalf("peer %s is %s, want alive", p.ID, st)
		}
	}
	if delivered != uint64(len(cells)) {
		t.Fatalf("%d replica writes delivered, want %d (one per cell)", delivered, len(cells))
	}
	for i, sh := range shards {
		if got := sh.suite.Store.Stats().Entries; got != len(cells) {
			t.Fatalf("shard-%d holds %d cells, want all %d", i, got, len(cells))
		}
	}
}

// TestClusterHintedHandoff: replica writes bound for a killed peer
// park as hints, and when the peer revives and a probe re-admits it,
// the hints are redelivered into its store — the peer converges
// without executing a single cell itself.
func TestClusterHintedHandoff(t *testing.T) {
	refText, _ := reference(t, "ABL-RATE")

	shards := []*storeShard{newStoreShard(t), newStoreShard(t), newStoreShard(t)}
	hosts := hostRewriter{real: make(map[string]string)}
	peers := make([]cluster.Peer, len(shards))
	for i, sh := range shards {
		stable := "shard-" + string(rune('0'+i)) + ".chaos"
		hosts.real[stable] = sh.addr()
		peers[i] = cluster.Peer{ID: "shard-" + string(rune('0'+i)), Addr: stable}
	}
	chaos := cluster.NewChaos(cluster.ChaosPlan{}, hosts)
	chaos.Kill("shard-1.chaos") // down from the start: every write to it must hint

	hints, err := cluster.NewHintQueue(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.NewCoordinator(cluster.Config{
		Peers:         peers,
		Replicas:      2,
		FailThreshold: 1,
		Client:        &cluster.Client{Transport: chaos, Sleep: noSleep},
		WriteClient:   &cluster.Client{Transport: chaos, Attempts: 1, Sleep: noSleep},
		Hints:         hints,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	suite, _ := coordSuite(t, co, 1)

	fig, err := suite.Generate("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	if fig.String() != refText {
		t.Fatal("sweep over a dead replica rendered different bytes")
	}
	// Let the asynchronous fan-out settle: in-flight replica writes to
	// the dead peer become hints once the workers see it dead.
	deadline := time.Now().Add(5 * time.Second)
	for hints.Pending("shard-1") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no hints queued for the killed replica")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := execCount(shards[1].suite); got != 0 {
		t.Fatalf("dead shard executed %d cells", got)
	}

	// Revive; the next probe re-admits the peer, which triggers the
	// redelivery hook.  Everything queued lands in shard-1's store.
	chaos.Revive("shard-1.chaos")
	queued := hints.Pending("shard-1")
	co.Members().ProbeAll(context.Background())
	for hints.Pending("shard-1") > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hints not redelivered: %d still pending", hints.Pending("shard-1"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Redelivery is store traffic, not execution: the rejoined peer
	// holds at least the hinted cells and still ran nothing.
	deadline = time.Now().Add(5 * time.Second)
	for shards[1].st.Stats().Entries < queued {
		if time.Now().After(deadline) {
			t.Fatalf("rejoined shard store has %d cells, want >= %d hinted",
				shards[1].st.Stats().Entries, queued)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := execCount(shards[1].suite); got != 0 {
		t.Fatalf("rejoined shard executed %d cells, want 0 (hints are writes)", got)
	}
}

// TestClusterChaosDeterministicSweep is the acceptance test: under a
// seeded chaos plan that drops requests, corrupts payloads, and kills a
// peer mid-sweep, the sweep still completes byte-identical to a single
// node, and the entire deterministic telemetry — retries, degradation,
// forwards, fallbacks, injected faults — is byte-identical between two
// fresh runs with the same seed.
func TestClusterChaosDeterministicSweep(t *testing.T) {
	refText, _ := reference(t, "ABL-RATE", "ABL-ADAPT")

	run1 := runChaoticSweep(t, 7)
	run2 := runChaoticSweep(t, 7)

	if run1.text != refText {
		t.Fatalf("chaotic sweep rendered different bytes than a single node:\n--- single ---\n%s--- chaos ---\n%s",
			refText, run1.text)
	}
	if run2.text != run1.text {
		t.Fatal("two identically seeded chaotic sweeps rendered different bytes")
	}
	if !bytes.Equal(run1.snapshot, run2.snapshot) {
		t.Fatalf("deterministic metric snapshots differ between identically seeded runs:\n--- run1 ---\n%s\n--- run2 ---\n%s",
			run1.snapshot, run2.snapshot)
	}
	if run1.retries == 0 {
		t.Fatal("chaos plan injected nothing: zero retries")
	}
	if run1.degraded < 1 {
		t.Fatalf("cluster_degraded = %v, want >= 1 (shard-1 was killed)", run1.degraded)
	}
	if st := run1.health.Peers[1].State; st != cluster.StateDead {
		t.Fatalf("killed shard state = %s, want dead", st)
	}

	// A different seed must observe different faults (while still
	// producing the same figure bytes).
	run3 := runChaoticSweep(t, 8)
	if run3.text != refText {
		t.Fatal("reseeded chaotic sweep broke byte-identity")
	}
	if bytes.Equal(run3.snapshot, run1.snapshot) {
		t.Fatal("different seeds produced identical fault telemetry")
	}
}
