// Package trace records the dynamic instruction stream of a simulated
// program together with its true data dependencies.  It stands in for the
// paper's LLVM-Tracer step (Fig. 5 ①): the recorder attaches to the CPU's
// execution hook and emits one entry per executed instruction, with edges
// to the entries that produced its register and memory operands.
//
// The resulting trace feeds internal/dddg, which constructs the dynamic
// data dependence graph and searches it for memoization candidates.
package trace

import (
	"axmemo/internal/cpu"
	"axmemo/internal/ir"
)

// Entry is one dynamic instruction.
type Entry struct {
	// SID is the program-unique static instruction id.
	SID int32
	// Op is the opcode.
	Op ir.Op
	// Weight is the estimated latency used as the DDDG vertex weight.
	Weight int32
	// Deps are the indices of earlier entries whose results this entry
	// consumes (register true-dependencies and load-after-store memory
	// dependencies).
	Deps []int32
	// LiveIns are synthetic keys for external inputs with no producer
	// in the trace: function parameters and loads from untouched
	// memory (the program's input arrays).
	LiveIns []uint64
	// Control marks instructions excluded from the DDDG (branches,
	// calls, returns), which carry no data values.
	Control bool
}

// Live-in key spaces.  The top bits discriminate parameter registers from
// cold memory addresses so they can never alias.
const (
	liveInParam = uint64(1) << 63
	liveInMem   = uint64(1) << 62
)

// ParamKey builds the live-in key of register r in call frame f.
func ParamKey(frame uint64, r ir.Reg) uint64 {
	return liveInParam | frame<<20 | uint64(uint32(r))&0xFFFFF
}

// MemKey builds the live-in key of a cold load address.
func MemKey(addr uint64) uint64 { return liveInMem | addr }

// Recorder captures a bounded dynamic trace.
type Recorder struct {
	// MaxEntries bounds the trace; recording stops silently once
	// reached (the paper analyzes sample inputs, not full runs).
	MaxEntries int

	entries []Entry
	full    bool

	// lastDef maps {frame, reg} to the entry that last defined it.
	lastDef map[regKey]int32
	// lastStore maps an element address to the entry that last stored
	// to it.
	lastStore map[uint64]int32
	// scratch backs Instr.Uses/Defs decoding; per-recorder so that
	// recorders on concurrent simulations never share it.
	scratch [8]ir.Reg
}

type regKey struct {
	frame uint64
	reg   ir.Reg
}

// NewRecorder returns a recorder bounded to maxEntries (0 means a default
// of 200k entries).
func NewRecorder(maxEntries int) *Recorder {
	if maxEntries <= 0 {
		maxEntries = 200_000
	}
	return &Recorder{
		MaxEntries: maxEntries,
		lastDef:    make(map[regKey]int32),
		lastStore:  make(map[uint64]int32),
	}
}

// Entries returns the recorded trace.
func (r *Recorder) Entries() []Entry { return r.entries }

// Hook returns the cpu.Hook that feeds this recorder.
func (r *Recorder) Hook() cpu.Hook { return r.observe }

func (r *Recorder) observe(e cpu.ExecInfo) {
	if len(r.entries) >= r.MaxEntries {
		r.full = true
		return
	}
	in := e.Instr
	id := int32(len(r.entries))
	ent := Entry{
		SID:     int32(in.SID),
		Op:      in.Op,
		Weight:  int32(cpu.Weight(in.Op)),
		Control: in.Op.IsBranch() || in.Op == ir.Call,
	}

	// Register dependencies.
	for _, u := range in.Uses(r.scratch[:0]) {
		if def, ok := r.lastDef[regKey{e.Frame, u}]; ok {
			ent.Deps = append(ent.Deps, def)
		} else {
			ent.LiveIns = append(ent.LiveIns, ParamKey(e.Frame, u))
		}
	}
	// Memory dependencies.
	if e.HasAddr {
		switch in.Op {
		case ir.Load, ir.LdCRC:
			if def, ok := r.lastStore[e.Addr]; ok {
				ent.Deps = append(ent.Deps, def)
			} else {
				ent.LiveIns = append(ent.LiveIns, MemKey(e.Addr))
			}
		case ir.Store:
			r.lastStore[e.Addr] = id
		}
	}
	// Register definitions.
	for _, d := range in.Defs(r.scratch[:0]) {
		r.lastDef[regKey{e.Frame, d}] = id
	}
	// A call's results are produced inside the callee frame; the
	// callee's ret entry defines the caller's result registers.  Model
	// this conservatively: the call entry defines them, and the callee
	// body links through parameters as live-ins of that frame.  (The
	// candidate search never crosses control vertices anyway.)
	if in.Op == ir.Call {
		for _, d := range in.Rets {
			r.lastDef[regKey{e.Frame, d}] = id
		}
	}

	r.entries = append(r.entries, ent)
}
