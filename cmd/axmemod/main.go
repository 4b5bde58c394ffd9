// Command axmemod is the long-running AxMemo simulation service: an
// HTTP/JSON daemon that executes simulation and sweep requests on a
// shared harness suite and memoizes every finished cell in a
// content-addressed result store, so repeated requests — and, with
// -store-dir, later CLI runs pointed at the same directory — are served
// without recomputation.  Without -store-dir the store is memory-only,
// bounded by -store-max-bytes like a directory store.
//
// Usage:
//
//	axmemod -addr localhost:8080 -store-dir /var/lib/axmemo [-store-max-bytes 1073741824]
//	axmemod -addr localhost:8080 -store-max-bytes 268435456     # memory-only store
//	axmemod -workers 8 -queue-depth 128 -request-timeout 2m -scale 2
//	axmemod -cluster 3 -replicas 2 -store-dir /var/lib/axmemo  # coordinator + 3 supervised shards
//	axmemod -peers 10.0.0.2:8080,10.0.0.3:8080                # coordinator over existing daemons
//
// Endpoints: POST /v1/simulate, POST /v1/cells (shard protocol), POST
// /v1/sweep (async; poll GET /v1/jobs/{id}), GET /v1/figures[/{name}],
// GET /v1/tenants and PUT /v1/tenants/{id} (approximation-manager
// tenant registry; see -tenants), GET /v1/store/manifest and GET/PUT
// /v1/store/cells/{key} (replica store protocol), GET /healthz,
// GET /metrics.  SIGINT/SIGTERM stop
// the listener, drain in-flight jobs (bounded by -drain-timeout), stop
// any spawned shards and exit 0.  Every store write is durable when it
// returns, so shutdown has no store state to flush.
//
// Cluster mode: -cluster=N spawns N shard daemons as child processes
// on ephemeral ports (each with its own store under -store-dir/shard-i),
// rendezvous-hashes every cell's content address onto its top-R
// replica set (-replicas), reads walk the set in rendezvous order, and
// fresh results fan out to the other replicas — with R > 1 a dead
// shard's key range keeps serving from its replicas instead of falling
// back to local recompute.  Writes bound for a dead peer park as
// bounded disk-backed hints (-store-dir/hints) and are redelivered
// when the peer rejoins.  Spawned shards are supervised: the parent
// reaps a dead child (logging whether it exited by signal or status),
// restarts it at the same address with capped exponential backoff, and
// hands it the surviving peers to anti-entropy repair against — the
// restarted shard pulls the cells it missed (reporting 503 "repairing"
// on /healthz meanwhile) before rejoining the replica set.  -peers
// joins externally managed daemons instead of spawning; peer identity
// is positional ("peer-0", ...), so keep the list order stable across
// restarts to keep key ownership stable.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"axmemo/internal/cli"
	"axmemo/internal/cluster"
	"axmemo/internal/harness"
	"axmemo/internal/manager"
	"axmemo/internal/obs"
	"axmemo/internal/server"
	"axmemo/internal/store"
)

func main() { cli.Main("axmemod", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("axmemod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "localhost:8080", "listen address (host:port; port 0 picks one)")
		storeDir      = fs.String("store-dir", "", "content-addressed result store directory (empty = a memory-only store bounded by -store-max-bytes)")
		storeMaxBytes = fs.Int64("store-max-bytes", 0, "store size budget, on disk or in memory; least-recently-used cells are evicted past it (0 = unlimited)")
		workers       = fs.Int("workers", 0, "concurrent read-class request executions (simulate/cells; 0 = one per CPU)")
		queueDepth    = fs.Int("queue-depth", 0, "read-class requests allowed to wait for a worker before 429 (0 = 64)")
		sweepWorkers  = fs.Int("sweep-workers", 0, "concurrent sweep-class executions (figure renders, sweep jobs; 0 = -workers), a separate budget so sweeps cannot starve reads")
		sweepQueue    = fs.Int("sweep-queue-depth", 0, "sweep-class requests allowed to wait before 429 (0 = -queue-depth)")
		reqTimeout    = fs.Duration("request-timeout", 0, "synchronous request deadline; expired requests get 504 while the work finishes into the cache (0 = 5m)")
		maxJobs       = fs.Int("max-jobs", 0, "active sweep jobs before 429 (0 = 64)")
		scale         = fs.Int("scale", 1, "input scale for every simulation (part of the store key)")
		parallel      = fs.Int("parallel", 0, "sweep scheduler pool size (0 = one worker per CPU)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "shutdown budget for in-flight work after SIGINT/SIGTERM")
		metricsOut    = fs.String("metrics-out", "", "write the deterministic metrics snapshot (JSON) to this file on exit")
		clusterN      = fs.Int("cluster", 0, "spawn this many supervised local shard daemons and coordinate cells across them (0 = single node)")
		peerList      = fs.String("peers", "", "comma-separated host:port list of existing shard daemons to coordinate (alternative to -cluster)")
		replicas      = fs.Int("replicas", 1, "replica-set size R in cluster mode: each cell lives on its top-R rendezvous peers; reads walk the set, fresh results fan out (1 = single-owner)")
		probeEvery    = fs.Duration("probe-interval", time.Second, "peer /healthz probe interval in cluster mode")
		failThreshold = fs.Int("peer-fail-threshold", 0, "consecutive probe/request failures before a peer is considered dead (0 = 3)")
		selfID        = fs.String("self-id", "", "this daemon's cluster peer ID, used for rejoin-repair placement (set by the parent on spawned shards)")
		repairPeers   = fs.String("repair-peers", "", "comma-separated id=host:port replica peers to anti-entropy diff against on boot; /healthz reports 503 \"repairing\" until the pull completes")
		tenantsFile   = fs.String("tenants", "", "JSON tenant declarations for the approximation manager ({\"tenants\": [{\"id\", \"error_budget\", \"share_weight\"}, ...]}); tenants can also be registered live via PUT /v1/tenants/{id}")
		managerLUTKB  = fs.Int("manager-lut-kb", 0, "LUT capacity the manager divides across tenants by share weight (0 = 64)")
		managerSeed   = fs.Int64("manager-seed", 0, "seed for the manager's re-probe jitter (the control policy is deterministic for a fixed seed)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *clusterN > 0 && *peerList != "" {
		return cli.Usagef("-cluster and -peers are mutually exclusive")
	}
	if *replicas < 1 {
		return cli.Usagef("-replicas must be >= 1 (got %d)", *replicas)
	}
	if *repairPeers != "" && *storeDir == "" {
		return cli.Usagef("-repair-peers needs -store-dir: repair pulls cells into the disk store")
	}

	// Always on for metrics, which /metrics serves live; no tracer,
	// since nothing in the daemon exports one.
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	suite := harness.NewSuite(*scale)
	suite.Parallel = *parallel
	suite.Obs = sink

	// In spawn mode the shards own the store shards; the coordinator's
	// store is memory-only, so every persisted cell lives exactly once.
	dir := *storeDir
	if *clusterN > 0 {
		dir = ""
	}
	st, err := store.Open(dir, *storeMaxBytes)
	if err != nil {
		return err
	}
	st.Logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	suite.Store = st
	st.Attach(sink)
	if dir != "" {
		fmt.Fprintf(stderr, "axmemod: store %s (%d cells)\n", st.Dir(), st.Stats().Entries)
	}

	// Cluster mode: assemble the peer set (spawned children or an
	// explicit list) and install the coordinator as the suite's remote
	// tier.
	var (
		co     *cluster.Coordinator
		shards []*shardProc
	)
	if *clusterN > 0 || *peerList != "" {
		var peers []cluster.Peer
		if *clusterN > 0 {
			var err error
			shards, peers, err = spawnShards(*clusterN, *storeDir, *storeMaxBytes,
				*scale, *parallel, *replicas, stderr)
			if err != nil {
				stopShards(shards, *drainTimeout)
				return err
			}
			defer stopShards(shards, *drainTimeout)
		} else {
			for i, a := range strings.Split(*peerList, ",") {
				a = strings.TrimSpace(a)
				if a == "" {
					continue
				}
				peers = append(peers, cluster.Peer{ID: "peer-" + strconv.Itoa(i), Addr: a})
			}
			if len(peers) == 0 {
				return cli.Usagef("-peers: no usable addresses in %q", *peerList)
			}
		}
		// Hints survive a coordinator restart when there is a store dir
		// to root them under; otherwise they live (and die) in memory —
		// fine either way, since anti-entropy repair re-converges
		// whatever a lost hint would have carried.
		hintDir := ""
		if *storeDir != "" {
			hintDir = filepath.Join(*storeDir, "hints")
		}
		hints, err := cluster.NewHintQueue(hintDir, 0)
		if err != nil {
			return err
		}
		co, err = cluster.NewCoordinator(cluster.Config{
			Peers:         peers,
			Replicas:      *replicas,
			FailThreshold: *failThreshold,
			Hints:         hints,
			CellTimeout:   *reqTimeout,
			Logf:          func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) },
		})
		if err != nil {
			return err
		}
		defer co.Close()
		co.Attach(sink)
		suite.Remote = co.RunCell
		fmt.Fprintf(stderr, "axmemod: coordinating %d peers, %d replicas (%s)\n",
			len(peers), co.Replicas(), co.Members())
	}

	// The approximation manager is always constructed — its metric
	// families register lazily on the first tenant Upsert, so a daemon
	// that never sees a tenant keeps its snapshots byte-identical —
	// which makes live registration via PUT /v1/tenants/{id} work even
	// without a -tenants file.
	mgr := manager.New(manager.Config{
		TotalLUTKB: *managerLUTKB,
		StoreBytes: *storeMaxBytes,
		Seed:       *managerSeed,
		Obs:        sink,
	})
	if *tenantsFile != "" {
		tenants, err := manager.LoadTenantsFile(*tenantsFile)
		if err != nil {
			return err
		}
		for _, t := range tenants {
			if _, err := mgr.Upsert(t); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "axmemod: managing %d tenants from %s\n", len(tenants), *tenantsFile)
	}

	srv := server.New(server.Config{
		Suite:           suite,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		SweepWorkers:    *sweepWorkers,
		SweepQueueDepth: *sweepQueue,
		RequestTimeout:  *reqTimeout,
		MaxJobs:         *maxJobs,
		Cluster:         co,
		Manager:         mgr,
	})

	// Rejoin repair: a restarted shard diffs its store manifest against
	// its replica peers and pulls the cells it missed while dead,
	// reporting 503 "repairing" until the pull completes so membership
	// probes re-admit only a converged peer.  StartRepair flips healthz
	// BEFORE the listener binds — no probe can ever see a hollow "ok".
	var repairCfg *cluster.RepairConfig
	if *repairPeers != "" {
		rp, err := parseRepairPeers(*repairPeers)
		if err != nil {
			return cli.Usagef("-repair-peers: %v", err)
		}
		repairCfg = &cluster.RepairConfig{
			Self:     *selfID,
			Peers:    rp,
			Replicas: *replicas,
			Store:    st,
			Version:  harness.ResultsVersion,
			Logf:     func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) },
		}
		srv.StartRepair()
	}

	// Bind before Serve so "port 0" invocations (tests, ephemeral
	// deployments) can read the real address from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "axmemod: serving on http://%s\n", ln.Addr())

	httpSrv := cli.NewHTTPServer(srv.Handler())
	err = cli.Serve(func(ctx context.Context) error {
		if co != nil {
			go co.Run(ctx, *probeEvery)
		}
		if repairCfg != nil {
			repairPulled := cluster.AttachRepair(sink)
			go func() {
				stats, rerr := cluster.Repair(ctx, *repairCfg)
				repairPulled.Add(uint64(stats.Pulled))
				srv.FinishRepair(stats.Pulled)
				fmt.Fprintf(stderr,
					"axmemod: rejoin repair done: pulled %d cells (%d peers diffed, %d skipped, %d pulls failed)\n",
					stats.Pulled, stats.PeersDiffed, stats.PeersSkipped, stats.Failed)
				if rerr != nil {
					fmt.Fprintf(stderr, "axmemod: rejoin repair: %v\n", rerr)
				}
			}()
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- httpSrv.Serve(ln) }()
		select {
		case err := <-serveErr:
			return err // listener died on its own
		case <-ctx.Done():
		}
		// Signal: flip /healthz to draining first — Shutdown keeps
		// serving keep-alive connections, and cluster probes must see the
		// peer demote itself before the listener closes — then stop
		// accepting and drain what was accepted.
		srv.StartDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			return err
		}
		return srv.Drain(shutCtx)
	})

	// Release the store and write the final snapshot even on the signal
	// path.
	if cerr := st.Close(); cerr != nil && (err == nil || errors.Is(err, cli.ErrSignaled)) {
		return cerr
	}
	if *metricsOut != "" {
		if werr := sink.WriteFiles(*metricsOut, "", ""); werr != nil && (err == nil || errors.Is(err, cli.ErrSignaled)) {
			return werr
		}
	}
	return err
}

// parseRepairPeers decodes a "-repair-peers id=host:port,..." list.
func parseRepairPeers(s string) ([]cluster.Peer, error) {
	var peers []cluster.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("want id=host:port, got %q", part)
		}
		peers = append(peers, cluster.Peer{ID: id, Addr: addr})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("no usable peers in %q", s)
	}
	return peers, nil
}

// shardSpec is everything needed to (re)launch one shard daemon.
type shardSpec struct {
	id            string
	addr          string // "127.0.0.1:0" on first boot, the concrete address after
	exe           string
	storeDir      string // this shard's own store shard ("" = none)
	storeMaxBytes int64
	scale         int
	parallel      int
	replicas      int
	repairPeers   string // id=addr list of the OTHER shards ("" = skip repair)
}

// args renders the child's command line.  Repair flags ride along only
// when there is a store to repair into.
func (s shardSpec) args() []string {
	a := []string{
		"-addr", s.addr,
		"-scale", strconv.Itoa(s.scale),
		"-parallel", strconv.Itoa(s.parallel),
		"-self-id", s.id,
		"-replicas", strconv.Itoa(s.replicas),
	}
	if s.storeDir != "" {
		a = append(a, "-store-dir", s.storeDir,
			"-store-max-bytes", strconv.FormatInt(s.storeMaxBytes, 10))
		if s.repairPeers != "" {
			a = append(a, "-repair-peers", s.repairPeers)
		}
	}
	return a
}

// shardProc is one supervised shard daemon: the current child process
// plus the spec to relaunch it from.
type shardProc struct {
	id string

	mu         sync.Mutex
	spec       shardSpec
	cur        *shardHandle
	supervised bool

	stopOnce sync.Once
	quit     chan struct{} // closed by stopShards: no more respawns
	done     chan struct{} // closed when the supervisor exits (child reaped)
}

// shardHandle is one running child process; wait delivers its final
// ProcessState exactly once (the single authoritative reaper).
type shardHandle struct {
	cmd  *exec.Cmd
	wait chan *os.ProcessState
}

func (sp *shardProc) current() *shardHandle {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.cur
}

func (sp *shardProc) setCurrent(h *shardHandle) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.cur = h
}

func (sp *shardProc) specSnapshot() shardSpec {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.spec
}

func (sp *shardProc) isSupervised() bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.supervised
}

func (sp *shardProc) stopping() bool {
	select {
	case <-sp.quit:
		return true
	default:
		return false
	}
}

var shardServingRE = regexp.MustCompile(`serving on http://(\S+)`)

// spawnShards launches n copies of this binary as shard daemons on
// ephemeral ports, each with its own store shard under storeDir, waits
// until every one reports its bound address, then starts one
// supervisor per shard.  Shard stderr is forwarded with an [id]
// prefix; the "serving on" line is consumed and re-announced with the
// child's pid so operators (and the CI chaos job) can target
// individual shards.
func spawnShards(n int, storeDir string, storeMaxBytes int64, scale, parallel, replicas int, stderr io.Writer) ([]*shardProc, []cluster.Peer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("axmemod: resolving own binary for shard spawn: %w", err)
	}
	var shards []*shardProc
	var peers []cluster.Peer
	for i := 0; i < n; i++ {
		id := "shard-" + strconv.Itoa(i)
		spec := shardSpec{
			id: id, addr: "127.0.0.1:0", exe: exe,
			scale: scale, parallel: parallel, replicas: replicas,
		}
		if storeDir != "" {
			spec.storeDir = filepath.Join(storeDir, id)
			spec.storeMaxBytes = storeMaxBytes
		}
		h, addr, err := launchShard(spec, stderr)
		if err != nil {
			return shards, nil, err
		}
		spec.addr = addr // restarts rebind the same port, keeping the peer set valid
		sp := &shardProc{id: id, spec: spec, cur: h,
			quit: make(chan struct{}), done: make(chan struct{})}
		shards = append(shards, sp)
		peers = append(peers, cluster.Peer{ID: id, Addr: addr})
		fmt.Fprintf(stderr, "axmemod: %s pid %d up at http://%s\n", id, h.cmd.Process.Pid, addr)
	}
	// Every address is known now: tell each shard who its repair peers
	// are (used only on supervised restarts) and begin supervision.
	for _, sp := range shards {
		sp.mu.Lock()
		sp.spec.repairPeers = repairPeerList(peers, sp.id)
		sp.supervised = true
		sp.mu.Unlock()
		go sp.supervise(stderr)
	}
	return shards, peers, nil
}

// repairPeerList renders the -repair-peers value for one shard: every
// OTHER shard as id=addr.
func repairPeerList(peers []cluster.Peer, selfID string) string {
	var parts []string
	for _, p := range peers {
		if p.ID == selfID {
			continue
		}
		parts = append(parts, p.ID+"="+p.Addr)
	}
	return strings.Join(parts, ",")
}

// launchShard starts one shard child and waits until it reports its
// bound address.  The returned handle's wait channel delivers the
// child's exit state exactly once — the caller (the supervisor) owns
// reaping, so a SIGKILLed shard never lingers as a zombie.
func launchShard(spec shardSpec, stderr io.Writer) (*shardHandle, string, error) {
	cmd := exec.Command(spec.exe, spec.args()...)
	// The marker lets a test binary standing in for axmemod (see
	// cmd/axmemod TestMain) recognize it should run the daemon, and
	// makes shards identifiable in process listings.
	cmd.Env = append(os.Environ(), "AXMEMOD_SHARD="+spec.id)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("axmemod: spawning %s: %w", spec.id, err)
	}
	h := &shardHandle{cmd: cmd, wait: make(chan *os.ProcessState, 1)}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if m := shardServingRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
					continue // announced by the caller; don't forward the raw line
				default:
				}
			}
			fmt.Fprintf(stderr, "axmemod[%s]: %s\n", spec.id, line)
		}
	}()
	go func() {
		cmd.Wait() //nolint:errcheck // ProcessState carries the exit cause
		h.wait <- cmd.ProcessState
	}()

	select {
	case addr := <-addrCh:
		return h, addr, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		<-h.wait           // reap: no zombie even on the failure path
		return nil, "", fmt.Errorf("axmemod: %s never reported its address", spec.id)
	case state := <-h.wait:
		return nil, "", fmt.Errorf("axmemod: %s exited before serving (%s)", spec.id, exitCause(state))
	}
}

// Supervised-restart backoff: quick first retry, exponential to a cap
// so a crash-looping shard cannot busy-spin the parent, reset once a
// child has stayed up long enough to count as healthy.
const (
	restartBackoffMin   = 100 * time.Millisecond
	restartBackoffMax   = 5 * time.Second
	restartHealthyAfter = 30 * time.Second
)

// supervise reaps and restarts one shard until stopShards quits it.
// Every child exit is logged with its cause — a SIGKILLed shard shows
// up as "signal: killed" on the parent's stderr, not as a silent
// zombie in the process table.
func (sp *shardProc) supervise(stderr io.Writer) {
	defer close(sp.done)
	backoff := restartBackoffMin
	for {
		h := sp.current()
		start := time.Now()
		state := <-h.wait // the reap: the child leaves the process table here
		cause := exitCause(state)
		if sp.stopping() {
			fmt.Fprintf(stderr, "axmemod: %s exited (%s)\n", sp.id, cause)
			return
		}
		if time.Since(start) > restartHealthyAfter {
			backoff = restartBackoffMin
		}
		fmt.Fprintf(stderr, "axmemod: %s died (%s); restarting in %v\n", sp.id, cause, backoff)
		for {
			if !sleepUnless(sp.quit, backoff) {
				return
			}
			if backoff *= 2; backoff > restartBackoffMax {
				backoff = restartBackoffMax
			}
			spec := sp.specSnapshot()
			nh, _, err := launchShard(spec, stderr)
			if err == nil {
				sp.setCurrent(nh)
				fmt.Fprintf(stderr, "axmemod: %s pid %d restarted at http://%s\n",
					sp.id, nh.cmd.Process.Pid, spec.addr)
				if sp.stopping() {
					// stopShards raced the relaunch and never saw this
					// child; shut it down ourselves (the outer loop reaps).
					nh.cmd.Process.Signal(os.Interrupt) //nolint:errcheck
				}
				break
			}
			if sp.stopping() {
				return
			}
			fmt.Fprintf(stderr, "axmemod: %s restart failed: %v; retrying in %v\n", sp.id, err, backoff)
		}
	}
}

// sleepUnless waits d, returning false early if quit closes first.
func sleepUnless(quit <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-quit:
		return false
	case <-t.C:
		return true
	}
}

// exitCause renders why a child exited: the delivering signal (a chaos
// SIGKILL shows as "signal: killed") or the exit status.
func exitCause(st *os.ProcessState) string {
	if st == nil {
		return "unknown"
	}
	if ws, ok := st.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
		return "signal: " + ws.Signal().String()
	}
	return "status " + strconv.Itoa(st.ExitCode())
}

// stopShards quits every supervisor (no more respawns), SIGTERMs the
// children and waits (bounded) for the clean drain; stragglers are
// killed.  Already-dead shards (a chaos test's SIGKILL) are fine — the
// error is theirs, not ours.
func stopShards(shards []*shardProc, timeout time.Duration) {
	for _, sp := range shards {
		sp.stopOnce.Do(func() { close(sp.quit) })
		if h := sp.current(); h != nil && h.cmd.Process != nil {
			h.cmd.Process.Signal(os.Interrupt) //nolint:errcheck // may already be gone
		}
	}
	deadline := time.After(timeout)
	for _, sp := range shards {
		h := sp.current()
		if h == nil {
			continue
		}
		if !sp.isSupervised() {
			// Spawn failed before supervisors started: reap this child
			// inline so the error path leaves no zombies either.
			select {
			case <-h.wait:
			case <-deadline:
				h.cmd.Process.Kill() //nolint:errcheck
				<-h.wait
			}
			continue
		}
		select {
		case <-sp.done:
			continue
		case <-deadline:
		}
		if h := sp.current(); h != nil && h.cmd.Process != nil {
			h.cmd.Process.Kill() //nolint:errcheck
		}
		select {
		case <-sp.done:
		case <-time.After(2 * time.Second):
			// Supervisor stuck mid-relaunch; the child dies with us anyway.
		}
	}
}
