package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Host-speed reference.  The reference box is a 2-vCPU guest on a
// shared host whose speed drifts by up to 3× over minutes: a cold sweep
// took 0.7 s in one stretch and 2.2 s in another, with the
// process's CPU time drifting alike, no steal time and no change in
// page faults.  Register-bound loops hardly drift with it; allocating,
// pointer-chasing code like the simulator's does.  So an untraced run
// times a fixed kernel of that kind, owned by the benchmark and built
// from the Go standard library only, between the slices of its window,
// where the program has no work in hand (bracket).  Each slice is
// carried to the run's median host speed, and the run's time metrics
// are then scaled by refNominal ÷ the median of the timings, which
// reads them as the times the run would have had at the reference
// box's speed when the kernel took refNominal.  No change to the
// program can move the kernel; the metrics before that last scaling are
// printed on stderr.  A traced run times the kernel after its teardown
// and reports the median as host.ref_ms.

// refNominal is a round figure within the range of the kernel's median
// on the reference box (26–74 ms over one session); it fixes the scale
// of the reported times, not their spread.
const refNominal = 35 * time.Millisecond

// refReps is how many times a traced run times the kernel.
const refReps = 12

// refRecord is one record of the kernel's document.
type refRecord struct {
	Name  string
	Vals  []float64
	Tags  map[string]int
	Child []refRecord
}

// refDoc is the document the kernel encodes and decodes: 200 records of
// 50 numbers, a name and a two-entry map each.
var refDoc = func() refRecord {
	doc := refRecord{Name: "root"}
	for i := 0; i < 200; i++ {
		c := refRecord{Name: "c" + strconv.Itoa(i), Tags: map[string]int{"a": i, "b": 2 * i}}
		for j := 0; j < 50; j++ {
			c.Vals = append(c.Vals, float64(i*j)/7)
		}
		doc.Child = append(doc.Child, c)
	}
	return doc
}()

// refKernel collects garbage, then encodes and decodes refDoc six
// times on each of two goroutines, one per vCPU of the reference box,
// and returns the wall time.  The collector stays on: its work inside
// the kernel grows with the bytes the kernel allocates, not with the
// heap the program keeps, while with it off the kernel's allocations
// touch fresh pages, whose cost depends on the program's heap history
// (the kernel read 1.6× slower between hot_reads slices than between
// sweeps).  The collection after it hands the program back the heap it
// left, so the kernel's garbage is not collected on the program's time.
func refKernel() (time.Duration, error) {
	runtime.GC()
	defer runtime.GC()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6 && errs[w] == nil; i++ {
				var b []byte
				if b, errs[w] = json.Marshal(refDoc); errs[w] == nil {
					var back refRecord
					errs[w] = json.Unmarshal(b, &back)
				}
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference kernel: %w", err)
		}
	}
	return d, nil
}

// hostRef collects a run's kernel timings, in ms.
type hostRef struct{ ms []float64 }

// sample times the kernel n times.
func (h *hostRef) sample(n int) error {
	for i := 0; i < n; i++ {
		d, err := refKernel()
		if err != nil {
			return err
		}
		h.ms = append(h.ms, ms(d))
	}
	return nil
}

// scale rescales an untraced run's time metrics to the reference
// speed: times by refNominal ÷ the median timing, rates by its inverse.
// peak_rss_mb is not a time and stays as measured.  Set-up precedes the
// window and takes only this scaling.
func (h *hostRef) scale(r *report) {
	k := ms(refNominal) / median(h.ms)
	for name, m := range r.Metrics {
		switch m.Unit {
		case "ms", "s":
			m.Value *= k
		case "1/s":
			m.Value /= k
		}
		r.Metrics[name] = m
	}
}

// bracket pairs each slice of a window with the mean of the kernel
// timings just before and just after it, so a slice's numbers can be
// carried to the window's median host speed: the host drifts within a
// run as well as between runs.  A nil *bracket times nothing (traced
// runs, whose per-layer numbers take no scaling).
type bracket struct {
	ref     *hostRef
	around  []float64 // per slice, ms
	pending []int     // slices awaiting their after-timing
	before  float64
}

// tick times the kernel once, between slices: it closes the slices
// added since the last tick.
func (b *bracket) tick() error {
	if b == nil {
		return nil
	}
	if err := b.ref.sample(1); err != nil {
		return err
	}
	t := b.ref.ms[len(b.ref.ms)-1]
	for _, i := range b.pending {
		b.around[i] = (b.around[i] + t) / 2
	}
	b.pending = b.pending[:0]
	b.before = t
	return nil
}

// add records a slice measured since the last tick.
func (b *bracket) add() {
	if b == nil {
		return
	}
	b.around = append(b.around, b.before)
	b.pending = append(b.pending, len(b.around)-1)
}

// carry returns per-slice values carried to the window's median host
// speed (xs[i] belongs to slice i): a time is multiplied by that median
// over the slice's kernel timing, a rate (rate true) divided.
func (b *bracket) carry(xs []float64, rate bool) []float64 {
	if b == nil {
		return xs
	}
	typical := median(append([]float64(nil), b.around...))
	out := make([]float64, len(xs))
	for i, x := range xs {
		k := typical / b.around[i]
		if rate {
			k = 1 / k
		}
		out[i] = x * k
	}
	return out
}
