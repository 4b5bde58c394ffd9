package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// Host-speed reference.  A shared host's speed drifts: on a 2-vCPU
// guest the same sweep read 0.94 s, 1.66 s and 1.25 s serial in three
// regenerations of one commit.  Allocating, pointer-chasing code like
// the simulator's drifts with it, so the report times a fixed kernel of
// that kind next to the sweeps, and a sweep's time divided by the
// kernel's reads the same on a slow stretch as on a fast one.  The
// kernel is the standard library's JSON encoder and decoder on a fixed
// document, so no change to this repository can move it.

// refRecord is one record of the kernel's document.
type refRecord struct {
	Name  string
	Vals  []float64
	Tags  map[string]int
	Child []refRecord
}

// refDoc is the kernel's document: 200 records of 50 numbers, a name
// and a two-entry map each.
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
// times on one goroutine, and returns the wall time.
func refKernel() (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	for i := 0; i < 6; i++ {
		b, err := json.Marshal(refDoc)
		if err != nil {
			return 0, fmt.Errorf("reference kernel: %w", err)
		}
		var back refRecord
		if err := json.Unmarshal(b, &back); err != nil {
			return 0, fmt.Errorf("reference kernel: %w", err)
		}
	}
	return time.Since(start), nil
}

// hostRef collects kernel timings, in ms.
type hostRef struct{ ms []float64 }

// sample times the kernel n times.
func (h *hostRef) sample(n int) error {
	for i := 0; i < n; i++ {
		d, err := refKernel()
		if err != nil {
			return err
		}
		h.ms = append(h.ms, float64(d.Nanoseconds())/1e6)
	}
	return nil
}

// median returns the median timing (0 with none).
func (h *hostRef) median() float64 {
	if len(h.ms) == 0 {
		return 0
	}
	s := slices.Clone(h.ms)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
