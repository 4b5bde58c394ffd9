package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Event phases (a subset of the Chrome trace-event format).
const (
	// PhaseComplete is a span with a start and a duration ("X").
	PhaseComplete = "X"
	// PhaseInstant is a point event ("i").
	PhaseInstant = "i"
	// PhaseMeta is a metadata record, e.g. a process name ("M").
	PhaseMeta = "M"
)

// Event is one timeline record.  Timestamps are logical — simulated
// cycles within a run, deterministic indices across runs — never wall
// clock, so a fixed seed reproduces the trace byte for byte.
type Event struct {
	Name string
	Cat  string
	Ph   string
	TS   uint64   // logical time (cycles / deterministic index)
	Dur  uint64   // span length (PhaseComplete only)
	PID  int      // process lane: one simulation / sweep cell
	TID  int      // thread lane within the process
	Args []string // alternating key, value; sorted pairwise on export
}

// Tracer accumulates events.  Safe for concurrent use; events are
// sorted by a total deterministic key on export, so concurrent arrival
// order cannot leak into the artifacts.  All methods are nil-safe.
type Tracer struct {
	mu     sync.Mutex
	events []Event
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span records a complete span [ts, ts+dur) on lane {pid, tid}.
// args are alternating key/value strings.
func (t *Tracer) Span(name, cat string, pid, tid int, ts, dur uint64, args ...string) {
	t.emit(Event{Name: name, Cat: cat, Ph: PhaseComplete, TS: ts, Dur: dur, PID: pid, TID: tid, Args: args})
}

// Instant records a point event at ts on lane {pid, tid}.
func (t *Tracer) Instant(name, cat string, pid, tid int, ts uint64, args ...string) {
	t.emit(Event{Name: name, Cat: cat, Ph: PhaseInstant, TS: ts, PID: pid, TID: tid, Args: args})
}

// NameProcess records a metadata event labeling pid in trace viewers.
func (t *Tracer) NameProcess(pid int, name string) {
	t.emit(Event{Name: "process_name", Ph: PhaseMeta, PID: pid, Args: []string{"name", name}})
}

// emit appends one event.  No-op on a nil tracer.
func (t *Tracer) emit(e Event) {
	if t == nil {
		return
	}
	if len(e.Args)%2 != 0 {
		panic(fmt.Sprintf("obs: trace event %q has an odd args list", e.Name))
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// sorted returns a deterministically ordered copy of the event list:
// metadata first, then by (pid, tid, ts, name, phase, dur, args).
func (t *Tracer) sorted() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	evs := make([]Event, len(t.events))
	copy(evs, t.events)
	t.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if (a.Ph == PhaseMeta) != (b.Ph == PhaseMeta) {
			return a.Ph == PhaseMeta
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Ph != b.Ph {
			return a.Ph < b.Ph
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		return strings.Join(a.Args, "\x1f") < strings.Join(b.Args, "\x1f")
	})
	return evs
}

// appendJSON renders one event as a Chrome trace-event object.
func (e *Event) appendJSON(b *strings.Builder) {
	fmt.Fprintf(b, "{%q: %q, %q: %q, %q: %d, %q: %d, %q: %d",
		"name", e.Name, "ph", e.Ph, "ts", e.TS, "pid", e.PID, "tid", e.TID)
	if e.Cat != "" {
		fmt.Fprintf(b, ", %q: %q", "cat", e.Cat)
	}
	if e.Ph == PhaseComplete {
		fmt.Fprintf(b, ", %q: %d", "dur", e.Dur)
	}
	if e.Ph == PhaseInstant {
		fmt.Fprintf(b, ", %q: %q", "s", "t") // thread-scoped instant
	}
	if len(e.Args) > 0 {
		fmt.Fprintf(b, ", %q: {", "args")
		for i := 0; i+1 < len(e.Args); i += 2 {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%q: %q", e.Args[i], e.Args[i+1])
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
}

// ChromeTraceJSON renders the events in the Chrome trace-event format
// (the "JSON object format": chrome://tracing and Perfetto load it).
// The output is deterministic: events are fully sorted and every field
// is logical rather than wall-clock.
func (t *Tracer) ChromeTraceJSON() []byte {
	evs := t.sorted()
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, "  %q: %q,\n", "displayTimeUnit", "ms")
	fmt.Fprintf(&b, "  %q: [", "traceEvents")
	for i := range evs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		evs[i].appendJSON(&b)
	}
	if len(evs) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("]\n}\n")
	return []byte(b.String())
}

// JSONL renders the events as a flat JSON-lines log, one event per
// line, in the same deterministic order as ChromeTraceJSON.
func (t *Tracer) JSONL() []byte {
	evs := t.sorted()
	var b strings.Builder
	for i := range evs {
		evs[i].appendJSON(&b)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}
