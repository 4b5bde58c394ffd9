// Command perfbench is the repository's end-to-end benchmark.  It
// assembles the system in-process from the same exported constructors
// cmd/axmemod and cmd/axreport use (harness.NewSuite, store.Open,
// server.New, cluster.NewCoordinator), drives one named workload from
// a seed, checks every output it is served, and prints one JSON result
// line last on stdout.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	figure_sweep   cold Suite.GenerateAll of all 13 figures, 2 workers
//	hot_reads      open-loop /v1/simulate cache hits over 2 connections
//	cluster_churn  closed-loop fresh cells through a 2-shard R=2 cluster
//
// --trace 0 reports the end-to-end metrics, their times scaled to the
// reference host speed (calib.go; stderr shows them before the
// scaling).  --trace 1 spends half the window untraced and half traced,
// reports the per-layer metrics and the tracing overhead (traced minus
// untraced), and writes its spans as a Chrome trace under
// .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outDir holds everything a run writes: disk stores (removed at exit)
// and traced runs' span files.
const outDir = ".bench_build/perfbench"

// opts are the command-line options every workload receives.
type opts struct {
	seed    int64
	window  time.Duration
	trace   bool
	workDir string // scratch directory for disk stores, removed at exit
	log     io.Writer
	ref     *hostRef // host-speed reference timings (calib.go)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.  A workload fills attempted/failed as it
// goes; correct is false when any output check of the timed work fails.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

var workloadRuns = map[string]func(o opts, r *report) error{
	"figure_sweep":  figureSweep,
	"hot_reads":     hotReads,
	"cluster_churn": clusterChurn,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: figure_sweep, hot_reads or cluster_churn")
		seed     = fs.Int64("seed", 1, "seed for the generated inputs")
		seconds  = fs.Float64("seconds", 30, "length of the measured window")
		trace    = fs.Int("trace", 0, "1 = traced run: report per-layer metrics and write spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloadRuns[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloadRuns))
		for n := range workloadRuns {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	o := opts{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, workDir: work, log: stderr, ref: &hostRef{}}
	r := &report{Correct: true, Metrics: map[string]metric{}}
	err = fn(o, r)
	if err == nil {
		if o.trace {
			// After the teardown, with none of the program left running.
			if err = o.ref.sample(refReps); err == nil {
				r.set("host.ref_ms", median(o.ref.ms), "ms")
				fillLayers(r)
			}
		} else if len(o.ref.ms) == 0 {
			err = fmt.Errorf("the host-speed reference was not timed")
		} else if err = keepEndToEnd(r); err == nil {
			fmt.Fprintf(stderr, "perfbench: %s at the run's median host speed: %s; reference kernel %.2f ms (nominal %.0f ms)\n",
				*workload, formatMetrics(r), median(o.ref.ms), ms(refNominal))
			o.ref.scale(r)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if r.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operations\n", *workload)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// formatMetrics lists a report's metrics in name order.
func formatMetrics(r *report) string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.4g %s", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	return b.String()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd lists the metrics an untraced run reports, with their units.
// Every workload reports all of them; what one "operation" is differs
// per workload (see README.md).
var endToEnd = map[string]string{
	"p50_ms":      "ms",
	"cells_per_s": "1/s",
	"setup_s":     "s",
	"peak_rss_mb": "MB",
}

// perLayer lists the metrics a traced run reports, with their units.
// A layer the workload does not exercise reports 0.
var perLayer = map[string]string{
	"host.ref_ms":                 "ms",
	"server.identity_mismatches":  "count",
	"harness.cell_ms.p50":         "ms",
	"harness.cell_ms.p90":         "ms",
	"harness.pool_busy":           "ratio",
	"sim.ns_per_insn":             "ns",
	"sim.insns":                   "count",
	"sim.run_ms.p50":              "ms",
	"sim.run_ms.p90":              "ms",
	"sim.hotloop_ns.bytecode":     "ns",
	"sim.hotloop_ns.tree":         "ns",
	"sim.hotloop_ns.smt2":         "ns",
	"sim.hotloop_ns.cores2":       "ns",
	"compiler.transform_ms":       "ms",
	"memo.hit_rate":               "ratio",
	"memo.lookups":                "count",
	"harness.hit_us.p50":          "us",
	"harness.hit_us.p99":          "us",
	"harness.cached_share":        "ratio",
	"server.handler_ms.p50":       "ms",
	"server.handler_ms.p99":       "ms",
	"net.ms.p50":                  "ms",
	"server.rejected":             "count",
	"server.queue_depth.max":      "count",
	"server.coord_self_ms.p50":    "ms",
	"server.shard_self_ms.p50":    "ms",
	"cluster.hop_ms.p50":          "ms",
	"cluster.hop_ms.p90":          "ms",
	"cluster.attempts_per_cell":   "ratio",
	"cluster.replica_writes":      "count",
	"cluster.replica_write_drops": "count",
	"store.put_ms.p50":            "ms",
	"store.put_ms.p99":            "ms",
	"store.replica_put_ms.p50":    "ms",
	"store.replica_put_ms.p99":    "ms",
	"store.fsyncs_per_cell":       "ratio",
	"go.alloc_kb_per_op":          "KB",
	"go.gc_pause_ms.p99":          "ms",
	"go.heap_mb":                  "MB",
	"driver.lag_ms.p50":           "ms",
	"driver.lag_ms.p99":           "ms",
	"tail.p90_ms":                 "ms",
	"tail.p99_ms":                 "ms",
	"trace.overhead.p50_ms":       "ms",
	"trace.overhead.p90_ms":       "ms",
	"trace.overhead.p99_ms":       "ms",
	"trace.overhead.cells_per_s":  "1/s",
}

// fillLayers gives every per-layer metric the workload did not
// exercise a 0, and drops anything that is not a per-layer metric.
func fillLayers(r *report) {
	for name, unit := range perLayer {
		if _, ok := r.Metrics[name]; !ok {
			r.set(name, 0, unit)
		}
	}
	for name := range r.Metrics {
		if _, ok := perLayer[name]; !ok {
			delete(r.Metrics, name)
		}
	}
}

// keepEndToEnd drops everything but the end-to-end metrics and fails
// when one is missing.
func keepEndToEnd(r *report) error {
	for name := range r.Metrics {
		if _, ok := endToEnd[name]; !ok {
			delete(r.Metrics, name)
		}
	}
	for name := range endToEnd {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("end-to-end metric %s was not measured", name)
		}
	}
	return nil
}

// overhead reports the tracing overhead: the traced half's p50, p90,
// p99 and throughput minus the untraced half's.
func overhead(r *report, plain, traced []float64, plainTput, tracedTput float64) {
	for i, name := range []string{"p50_ms", "p90_ms", "p99_ms"} {
		r.set("trace.overhead."+name, traced[i]-plain[i], "ms")
	}
	r.set("trace.overhead.cells_per_s", tracedTput-plainTput, "1/s")
}

// tails reports the untraced operations' p90 and p99 (pct is p50, p90,
// p99).  They are per-layer numbers, without a bound: on a shared
// 2-vCPU host a 30-second run's tail moves by several times between
// runs.
func tails(r *report, pct []float64) {
	r.set("tail.p90_ms", pct[1], "ms")
	r.set("tail.p99_ms", pct[2], "ms")
}

// pcts returns the p50, p90 and p99 of xs.
func pcts(xs []float64) []float64 {
	return []float64{quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99)}
}

// writeSpans writes a traced run's spans and names the file on stderr.
func writeSpans(tl *spanLog, workload string, o opts) error {
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", workload, o.seed))
	if err := tl.write(path); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "perfbench: spans written to %s\n", path)
	return nil
}
