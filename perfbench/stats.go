package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failLatency is what a refused, timed-out or wrong answer counts as.
const failLatency = 10 * time.Second

// goStats brackets a measured window with Go runtime counters.
type goStats struct {
	alloc  uint64
	pauses *metrics.Float64Histogram
}

const gcPauseMetric = "/sched/pauses/total/gc:seconds"

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: gcPauseMetric}}
	metrics.Read(s)
	var h *metrics.Float64Histogram
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h = s[0].Value.Float64Histogram()
	}
	return goStats{alloc: m.TotalAlloc, pauses: h}
}

// report records go.alloc_kb_per_op, go.gc_pause_ms.p99 and go.heap_mb
// for the window that began at start and completed ops operations.
func (start goStats) report(r *report, ops int) {
	end := readGoStats()
	if ops > 0 {
		r.set("go.alloc_kb_per_op", float64(end.alloc-start.alloc)/1024/float64(ops), "KB")
	}
	r.set("go.gc_pause_ms.p99", 1000*histQuantile(start.pauses, end.pauses, 0.99), "ms")
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("go.heap_mb", float64(m.HeapAlloc)/(1<<20), "MB")
}

// histQuantile is the q-quantile of the observations a runtime
// histogram gained between two reads (the upper edge of the bucket
// holding it; 0 when nothing was observed).
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge
		}
	}
	return 0
}
