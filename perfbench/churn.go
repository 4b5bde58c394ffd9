package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"axmemo/internal/harness"
)

// cluster_churn: a coordinator and 2 shards at R=2, wired as `axmemod
// -cluster 2 -replicas 2 -store-dir D` wires them, receive a seeded,
// never-repeating stream of fresh cells from 2 closed-loop callers.
// The stream varies only fields the suite's cell name encodes
// (benchmark, mode, l1_kb, l2_kb, trunc_off): 750 distinct cells.
// Every request misses every cache, so the work falls on the
// simulator, the store puts, the cluster hop and the replica fan-out.
//
// One cluster serves each cell of the population once; set-up builds
// enough clusters for the window, and the stream moves on to the next
// cluster when one has seen every cell.
//
// An untraced run drives the window as churnSlice slices with the
// host-speed reference kernel timed between them (calib.go); each
// slice's median latency and rate are carried to the run's median host
// speed, and the run reports the lower quartile of the former and the
// upper quartile of the latter.

var (
	churnL1KB = []int{1, 2, 4, 8, 16, 32, 64}
	churnL2KB = []int{0, 64, 128, 256, 512}
)

const (
	churnCallers = 2
	// churnMaxRate bounds the cells/s the clusters built in set-up can
	// absorb before the stream would have to repeat.
	churnMaxRate = 250.0
	// churnSample is how many population cells get their served result
	// compared with a direct harness.Run.
	churnSample = 24
	// churnSlice is the slice of the window the end-to-end numbers are
	// taken over (see slicing in README.md).
	churnSlice = 2500 * time.Millisecond
)

// churnPopulation is every cell the stream draws from.
func churnPopulation() ([]cell, error) {
	var qs []simReq
	for _, b := range hotBenchmarks {
		for _, l1 := range churnL1KB {
			for _, l2 := range churnL2KB {
				for _, off := range []bool{false, true} {
					qs = append(qs, simReq{Benchmark: b, Mode: "hw", L1KB: l1, L2KB: l2, TruncOff: off})
				}
			}
		}
		for _, m := range []string{"soft", "atm"} {
			qs = append(qs, simReq{Benchmark: b, Mode: m}, simReq{Benchmark: b, Mode: m, TruncOff: true})
		}
		qs = append(qs, simReq{Benchmark: b, Mode: "baseline"})
	}
	cells := make([]cell, len(qs))
	seen := map[string]bool{}
	for i, q := range qs {
		c, err := newCell(q)
		if err != nil {
			return nil, err
		}
		if seen[c.key] {
			return nil, fmt.Errorf("churn population repeats %s", c.body)
		}
		seen[c.key] = true
		cells[i] = c
	}
	return cells, nil
}

type churnRun struct {
	o      opts
	r      *report
	pop    []cell
	sample map[int]bool // population indices whose results are compared
	client *http.Client
	errs   int
}

// churnAnswer is one served cell.
type churnAnswer struct {
	cell    int
	cluster int // index of the cluster that served it
	slice   int // index of the window's slice it was sent in
	lat     time.Duration
	end     time.Duration   // since its slice began
	err     error           // transport, status or check failure
	wrong   bool            // a 2xx that failed its check
	cached  bool            // what the answer claimed
	result  json.RawMessage // kept for sampled cells only
}

func clusterChurn(o opts, r *report) error {
	pop, err := churnPopulation()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	cr := &churnRun{o: o, r: r, pop: pop, sample: map[int]bool{}}
	for _, i := range rng.Perm(len(pop))[:churnSample] {
		cr.sample[i] = true
	}
	cr.client = loadClient()

	windows := []time.Duration{o.window}
	if o.trace {
		windows = []time.Duration{o.window / 2, o.window / 2}
	}
	// Set-up: every cluster either window needs, each timed.
	var setups, setupMS []float64
	sets := make([][]*clusterSet, len(windows))
	var tl *spanLog
	if o.trace {
		tl = newSpanLog()
	}
	defer func() {
		cr.client.CloseIdleConnections()
		for _, set := range sets {
			for _, cs := range set {
				if cs != nil { // untraced windows stop used clusters early
					cs.stop()
				}
			}
		}
	}()
	for wi, w := range windows {
		var log *spanLog
		if wi == 1 {
			log = tl
		}
		need := int(w.Seconds()*churnMaxRate)/len(pop) + 1
		for i := 0; i < need; i++ {
			var cs *clusterSet
			d := timeIt(func() {
				cs, err = startCluster(filepath.Join(o.workDir, fmt.Sprintf("cluster-%d-%d", wi, i)), log)
			})
			if err != nil {
				return err
			}
			sets[wi] = append(sets[wi], cs)
			setups = append(setups, d.Seconds())
			setupMS = append(setupMS, ms(d))
		}
	}

	var results [][]churnAnswer
	var walls []time.Duration
	var b *bracket // the untraced run's kernel timings around each slice
	if !o.trace {
		b = &bracket{ref: o.ref}
	}
	for wi, w := range windows {
		var log *spanLog
		if wi == 1 {
			log = tl
		}
		g := readGoStats()
		fsync0 := totalFsyncs(sets[wi])
		ans, wall, err := cr.window(sets[wi], w, rng, log, b)
		if err != nil {
			return err
		}
		if wi == 0 {
			g.report(r, len(ans))
		}
		results = append(results, ans)
		walls = append(walls, wall)
		if log != nil {
			for _, cs := range sets[wi] {
				cs.quiesce()
			}
			r.set("store.fsyncs_per_cell", float64(totalFsyncs(sets[wi])-fsync0)/float64(len(ans)), "ratio")
		}
	}
	if err := cr.checkSample(results); err != nil {
		return err
	}
	lats := make([][]float64, len(results))
	for i, ans := range results {
		lats[i] = cr.account(ans)
	}
	tput := func(i int) float64 { return float64(len(results[i])) / walls[i].Seconds() }
	if !o.trace {
		lat := lats[0]
		p50s, rates := churnSlices(results[0], lat, b)
		fmt.Fprintf(o.log, "cluster_churn: slices carried to the run's median host speed: p50 ms %.1f, cells/s %.0f; reference kernel ms %.1f\n",
			p50s, rates, b.around)
		r.set("p50_ms", quantile(p50s, 0.25), "ms")
		r.set("cells_per_s", quantile(rates, 0.75), "1/s")
		r.set("setup_s", median(setups), "s")
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		fmt.Fprintf(o.log, "cluster_churn: %d cells in %.1f s on %d clusters, p50 %.1f ms, p90 %.1f ms, p99 %.1f ms; set-ups ms %.2f\n",
			len(lat), walls[0].Seconds(), len(sets[0]), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), setupMS)
		return nil
	}
	tails(r, pcts(lats[0]))
	overhead(r, pcts(lats[0]), pcts(lats[1]), tput(0), tput(1))
	if err := cr.layers(tl, sets[1], results[1]); err != nil {
		return err
	}
	return writeSpans(tl, "cluster_churn", o)
}

// window drives the closed loop for d over the clusters, each taking
// the next cluster-sized, seeded permutation of the population, and
// returns the answers and the time they took.  With b set (untraced
// runs) the window runs as churnSlice slices, and the host-speed
// reference kernel is timed before each and after the last, once every
// caller's request has been answered.  Between slices, an untraced run
// also stops every cluster the stream has moved past and drops it from
// sets, so that the process holds at most the cells of the clusters in
// use and peak_rss_mb does not grow with the cells a run gets through.
func (cr *churnRun) window(sets []*clusterSet, d time.Duration, rng *rand.Rand, tl *spanLog, b *bracket) ([]churnAnswer, time.Duration, error) {
	var stream []int
	for range sets {
		stream = append(stream, rng.Perm(len(cr.pop))...)
	}
	var next atomic.Int64
	slices, length := 1, d
	if b != nil {
		slices, length = int(d/churnSlice), churnSlice
	}
	var all []churnAnswer
	var wall time.Duration
	for k := 0; k < slices; k++ {
		if err := b.tick(); err != nil {
			return nil, 0, err
		}
		ans, span := cr.slice(sets, stream, &next, k, length, tl)
		all = append(all, ans...)
		wall += span
		b.add()
		if b != nil {
			for i := 0; i < int(next.Load())/len(cr.pop) && i < len(sets); i++ {
				if sets[i] != nil {
					sets[i].stop()
					sets[i] = nil
				}
			}
		}
	}
	return all, wall, b.tick()
}

// slice runs the closed loop for d as slice k of a window and returns
// its answers and the time until the last of them.
func (cr *churnRun) slice(sets []*clusterSet, stream []int, next *atomic.Int64, k int, d time.Duration, tl *spanLog) ([]churnAnswer, time.Duration) {
	parts := make([][]churnAnswer, churnCallers)
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < churnCallers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				cs, ci := sets[i/len(cr.pop)], stream[i]
				c := cr.pop[ci]
				var req uint64
				var root openSpan
				if tl != nil {
					req = uint64(i + 1)
					root = tl.root("client.request", req, c.key, w)
				}
				t := time.Now()
				status, err := post(cr.client, cs.front.url, c.body, req, &buf)
				done := time.Now()
				root.finish()
				a := churnAnswer{cell: ci, cluster: i / len(cr.pop), slice: k, lat: done.Sub(t), end: done.Sub(start), err: err}
				if err == nil {
					var got simResp
					got, a.err = checkAnswer(c, status, buf.Bytes(), nil, true)
					a.wrong = a.err != nil && status/100 == 2
					a.cached = got.Cached
					if a.err == nil && cr.sample[ci] {
						a.result = bytes.Clone(got.Result)
					}
				}
				parts[w] = append(parts[w], a)
			}
		}(w)
	}
	wg.Wait()
	var all []churnAnswer
	var span time.Duration
	for _, p := range parts {
		all = append(all, p...)
		for _, a := range p {
			span = max(span, a.end)
		}
	}
	return all, span
}

// checkSample compares every served result of a sampled cell with a
// direct harness.Run of its config, computed now, outside the windows.
func (cr *churnRun) checkSample(results [][]churnAnswer) error {
	refs := map[int]reference{}
	for _, ans := range results {
		for i := range ans {
			a := &ans[i]
			if a.err != nil || !cr.sample[a.cell] {
				continue
			}
			ref, ok := refs[a.cell]
			if !ok {
				if ref = runReference(cr.pop[a.cell].req); ref.err != nil {
					return fmt.Errorf("reference run %s: %w", cr.pop[a.cell].body, ref.err)
				}
				refs[a.cell] = ref
			}
			a.err = sameResult(cr.pop[a.cell], a.result, ref.result)
			a.wrong = a.err != nil
		}
	}
	return nil
}

// account adds a window's answers to the report and returns their
// latencies; a failed answer counts at failLatency, and a wrong one
// also makes the run incorrect.
func (cr *churnRun) account(ans []churnAnswer) []float64 {
	out := make([]float64, len(ans))
	for i, a := range ans {
		out[i] = ms(a.lat)
		if a.err == nil {
			continue
		}
		out[i] = ms(failLatency)
		cr.r.Failed++
		if a.wrong {
			cr.r.Correct = false
		}
		if cr.errs++; cr.errs <= 5 {
			fmt.Fprintln(cr.o.log, "cluster_churn:", a.err)
		}
	}
	cr.r.Attempted += len(ans)
	return out
}

// churnSlices returns each slice's median latency and cells per
// second, carried to the window's median host speed by b (lat is
// account's output for ans).
func churnSlices(ans []churnAnswer, lat []float64, b *bracket) (p50s, rates []float64) {
	per := make([][]float64, len(b.around))
	span := make([]time.Duration, len(b.around))
	for i, a := range ans {
		per[a.slice] = append(per[a.slice], lat[i])
		span[a.slice] = max(span[a.slice], a.end)
	}
	for k, l := range per {
		p50s = append(p50s, quantile(l, 0.5))
		rates = append(rates, float64(len(l))/span[k].Seconds())
	}
	return b.carry(p50s, false), b.carry(rates, true)
}

func totalFsyncs(sets []*clusterSet) uint64 {
	var n uint64
	for _, cs := range sets {
		n += cs.fsyncs()
	}
	return n
}

// layers reports cluster_churn's per-layer metrics from the traced
// window.
func (cr *churnRun) layers(tl *spanLog, sets []*clusterSet, ans []churnAnswer) error {
	spans, kids := tl.snapshot()
	r := cr.r
	r.set("server.coord_self_ms.p50", median(selfMS(spans, kids, "coord.handler")), "ms")
	r.set("server.shard_self_ms.p50", median(selfMS(spans, kids, "shard.handler")), "ms")
	var hop []float64
	for _, s := range spans {
		if s.Name != "cluster.runcell" {
			continue
		}
		d := s.dur()
		for _, at := range kids[s.ID] {
			for _, sh := range kids[at.ID] {
				if sh.Name == "shard.handler" {
					d -= sh.dur()
				}
			}
		}
		hop = append(hop, ms(d))
	}
	r.set("cluster.hop_ms.p50", quantile(hop, 0.5), "ms")
	r.set("cluster.hop_ms.p90", quantile(hop, 0.9), "ms")
	var attempts int64
	var writes, drops float64
	for _, cs := range sets {
		attempts += cs.attempts.Load()
		snap := cs.front.snapshot()
		writes += snap.Family("cluster_replica_writes_total").SumValues(nil)
		drops += snap.Family("cluster_replica_write_drops_total").SumValues(nil)
	}
	r.set("cluster.attempts_per_cell", float64(attempts)/float64(len(ans)), "ratio")
	r.set("cluster.replica_writes", writes, "count")
	r.set("cluster.replica_write_drops", drops, "count")
	put := durMS(spans, "store.put")
	r.set("store.put_ms.p50", quantile(put, 0.5), "ms")
	r.set("store.put_ms.p99", quantile(put, 0.99), "ms")
	rput := durMS(spans, "store.replica_put")
	r.set("store.replica_put_ms.p50", quantile(rput, 0.5), "ms")
	r.set("store.replica_put_ms.p99", quantile(rput, 0.99), "ms")
	run := durMS(spans, "sim.run")
	r.set("sim.run_ms.p50", quantile(run, 0.5), "ms")
	r.set("sim.run_ms.p90", quantile(run, 0.9), "ms")
	if insns := tl.simInsns.Load(); insns > 0 {
		r.set("sim.ns_per_insn", float64(tl.simNs.Load())/float64(insns), "ns")
		r.set("sim.insns", float64(insns)/float64(len(run)), "count")
	}
	cached := 0
	var held []harness.SweepCell // cells the first cluster's coordinator holds
	for _, a := range ans {
		if a.cached {
			cached++
		}
		if a.err == nil && a.cluster == 0 {
			cfg, err := cr.pop[a.cell].req.config()
			if err != nil {
				return err
			}
			held = append(held, harness.SweepCell{Workload: cr.pop[a.cell].req.Benchmark, Config: cfg})
		}
	}
	r.set("harness.cached_share", float64(cached)/float64(len(ans)), "ratio")
	if err := hitProbe(tl, r, sets[0].front.suite, held, cr.o.seed); err != nil {
		return err
	}
	return layerProbes(tl, r)
}
