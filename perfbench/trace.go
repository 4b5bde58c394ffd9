package main

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"axmemo/internal/cluster"
	"axmemo/internal/obs"
)

// This file is the traced run's span recorder.  Spans are timed from
// the benchmark's own code around the calls into each layer; none are
// recorded inside the program.  They stay in memory until the run
// ends, then go out as a Chrome trace on a wall-clock process lane of
// their own, apart from the simulator's simulated-cycle lanes.

// span is one timed call into a layer.  Every span of one operation
// shares Req; Parent names the span that caused it (0 = root).
type span struct {
	ID, Parent, Req uint64
	Name            string
	Lane            int
	Start, End      time.Duration // since the log's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanLog collects spans and the cross-goroutine links that let a layer
// find its parent: an operation registers under its request id and
// under the store key of its cell, and each hook records the span it
// opened under the layer's name.
type spanLog struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	ops   sync.Map // request id (uint64) or store key (string) -> *op

	// Simulator work seen by the traced seams: wall time inside
	// harness.Run and the instructions those runs retired.
	simNs    atomic.Int64
	simInsns atomic.Uint64
	depth    atomic.Int64
}

// depth is the highest server queue depth a traced request saw.
func (l *spanLog) noteDepth(v float64) {
	for {
		cur := l.depth.Load()
		if int64(v) <= cur || l.depth.CompareAndSwap(cur, int64(v)) {
			return
		}
	}
}

func (l *spanLog) maxDepth() float64 { return float64(l.depth.Load()) }

func (l *spanLog) addSim(d time.Duration, insns uint64) {
	l.simNs.Add(int64(d))
	l.simInsns.Add(insns)
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// op is one traced operation.  Its spans go on its lane of the trace.
type op struct {
	req   uint64
	lane  int
	mu    sync.Mutex
	links map[string]uint64 // layer -> most recent span id
}

// openSpan is a span being timed; finish records it.
type openSpan struct {
	l *spanLog
	s span
}

func (l *spanLog) start(name string, req, parent uint64, lane int) openSpan {
	return openSpan{l, span{ID: l.ids.Add(1), Parent: parent, Req: req, Name: name,
		Lane: lane, Start: time.Since(l.epoch)}}
}

func (o openSpan) finish() span {
	if o.l == nil { // an untraced operation
		return o.s
	}
	o.s.End = time.Since(o.l.epoch)
	o.l.mu.Lock()
	o.l.spans = append(o.l.spans, o.s)
	o.l.mu.Unlock()
	return o.s
}

// root registers a new operation under its request id and, when the
// operation is one cell, under that cell's store key, and opens its
// root span, which the first layer it reaches links to by name.
func (l *spanLog) root(name string, req uint64, key string, lane int) openSpan {
	o := &op{req: req, lane: lane, links: map[string]uint64{}}
	l.ops.Store(req, o)
	if key != "" {
		l.ops.Store(key, o)
	}
	return o.child(l, name, "", lane)
}

// lookup finds an operation by request id or store key (nil if none).
func (l *spanLog) lookup(k any) *op {
	if v, ok := l.ops.Load(k); ok {
		return v.(*op)
	}
	return nil
}

// child opens a span under the operation's most recent parentLayer
// span and records it as the operation's latest name span.  lane < 0
// means the operation's own lane.  On a nil operation (work no traced
// operation registered) it returns a span whose finish does nothing.
func (o *op) child(l *spanLog, name, parentLayer string, lane int) openSpan {
	if o == nil {
		return openSpan{}
	}
	if lane < 0 {
		lane = o.lane
	}
	o.mu.Lock()
	parent := o.links[parentLayer]
	sp := l.start(name, o.req, parent, lane)
	o.links[name] = sp.s.ID
	o.mu.Unlock()
	return sp
}

// headerReq carries the benchmark's request id from its load client to
// the first server's handler wrapper.
const headerReq = "X-Perfbench-Req"

// reqOf resolves the traced operation an inbound request belongs to:
// by the benchmark's request id, else by the cluster's cell-key header.
func (l *spanLog) reqOf(r *http.Request) *op {
	if v := r.Header.Get(headerReq); v != "" {
		if id, err := strconv.ParseUint(v, 10, 64); err == nil {
			return l.lookup(id)
		}
	}
	if k := r.Header.Get(cluster.HeaderKey); k != "" {
		return l.lookup(k)
	}
	return nil
}

// snapshot returns the recorded spans and an index of children by
// parent id.
func (l *spanLog) snapshot() ([]span, map[uint64][]span) {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return spans, kids
}

// selfTime is a span's duration minus the part of it its children
// cover (children clipped to the span, overlaps counted once).
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Insertion sort: a span has a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a > cur.b {
			covered += cur.b - cur.a
			cur = v
		} else if v.b > cur.b {
			cur.b = v.b
		}
	}
	covered += cur.b - cur.a
	return s.dur() - covered
}

// durMS returns the durations of every span named name, in ms.
func durMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfMS returns the self times of every span named name, in ms.
func selfMS(spans []span, kids map[uint64][]span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(selfTime(s, kids[s.ID])))
		}
	}
	return out
}

// wallPID is the trace process lane of the benchmark's wall-clock
// spans, far above the simulator's per-cell lanes.
const wallPID = 1 << 20

// write exports the spans as a Chrome trace (timestamps in µs).
func (l *spanLog) write(path string) error {
	spans, _ := l.snapshot()
	tr := obs.NewTracer()
	tr.NameProcess(wallPID, "perfbench wall clock (us)")
	for _, s := range spans {
		tr.Span(s.Name, "wall", wallPID, s.Lane,
			uint64(s.Start/time.Microsecond), uint64(s.dur()/time.Microsecond),
			"id", fmt.Sprint(s.ID), "parent", fmt.Sprint(s.Parent), "req", fmt.Sprint(s.Req))
	}
	return os.WriteFile(path, tr.ChromeTraceJSON(), 0o644)
}
