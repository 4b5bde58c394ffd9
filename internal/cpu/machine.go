// Package cpu is the timing simulator standing in for the paper's
// modified gem5 (§6.1): a functional interpreter for the internal/ir
// instruction set with an in-order, dual-issue, scoreboarded timing model
// flavoured after the ARM high-performance in-order (HPI) configuration of
// Table 3, a two-level cache hierarchy (internal/mem), an attached
// per-core memoization unit (internal/memo), and event counting for the
// energy model (internal/energy).
package cpu

import (
	"errors"
	"fmt"

	"axmemo/internal/bytecode"
	"axmemo/internal/energy"
	"axmemo/internal/fault"
	"axmemo/internal/ir"
	"axmemo/internal/mem"
	"axmemo/internal/memo"
	"axmemo/internal/obs"
	"axmemo/internal/softmemo"
)

// Config parametrizes the core model.
type Config struct {
	// Engine selects the execution engine: EngineBytecode (default)
	// compiles the program to a flat instruction stream at machine
	// construction; EngineTree interprets the IR directly and is the
	// tests' differential oracle.  Both produce identical results,
	// statistics, and trace events, for one thread, SMT and clusters.
	Engine Engine
	// IssueWidth is the in-order issue width (Table 3: two).
	IssueWidth int
	// BranchPenalty is the redirect bubble of a mispredicted
	// conditional branch.
	BranchPenalty int
	// PredictBTFN switches the static branch predictor from
	// not-taken to backward-taken/forward-not-taken, the common
	// in-order heuristic: loop back-edges then predict correctly and
	// only forward taken branches pay the penalty.
	PredictBTFN bool
	// CallOverhead is the extra fetch-redirect cost of call/return.
	CallOverhead int
	// Hierarchy configures the data caches and DRAM.
	Hierarchy mem.HierarchyConfig
	// Memo, if non-nil, attaches a memoization unit; programs using
	// memo instructions without one fail at run time.
	Memo *memo.Config
	// Soft, if non-nil, services the memo instructions with a software
	// runtime instead of hardware: the paper's software-LUT contender
	// (internal/softmemo) or the ATM prior-work baseline
	// (internal/atm).  All costs are charged as ordinary dynamic
	// instructions and cache traffic.  Mutually exclusive with Memo.
	Soft SoftUnit
	// MaxInsns aborts runaway programs (0 = default limit).
	MaxInsns uint64
	// MaxCycles is a watchdog on simulated time: a run whose cycle count
	// exceeds it halts with ErrCycleBudget and the statistics gathered so
	// far (0 = unlimited).  Unlike MaxInsns it bounds modeled time, so a
	// fault sweep can cap how long a degraded configuration may take.
	MaxCycles uint64
	// Hook, if set, is invoked after every executed instruction; the
	// tracer uses it to build dynamic traces.
	Hook Hook
	// Obs, if non-nil, receives live metrics from the interpreter hot
	// path (dynamic instructions by class, memo lookup latency).  A nil
	// sink keeps the hot path allocation-free and costs one nil check
	// per instruction.
	Obs *obs.Sink
	// ObsPID is the trace process lane for this machine's events (a
	// sweep assigns one lane per cell).
	ObsPID int
	// ObsRun is the label value identifying this run in metric series
	// (e.g. "sobel/L1 (8KB)").
	ObsRun string
}

// DefaultConfig returns the Table 3 core with no memoization unit.
func DefaultConfig() Config {
	return Config{
		IssueWidth:    2,
		BranchPenalty: 2,
		CallOverhead:  2,
		Hierarchy:     mem.DefaultHierarchy(),
	}
}

// SoftUnit abstracts software memoization runtimes: the §6.2 software
// LUT and the ATM baseline both implement it.  Instruction costs returned
// by its methods are charged to the pipeline as ordinary instructions;
// array addresses flow through the cache hierarchy.
type SoftUnit interface {
	// Feed absorbs one input lane and returns the ALU-ish instruction
	// count plus the number of table loads it costs.
	Feed(lut uint8, data uint64, sizeBytes int, truncBits uint) (insns, tableLoads int)
	// Lookup finalizes the key and probes the structure.
	Lookup(lut uint8) softmemo.LookupResult
	// Update fills the entry allocated by the last missed lookup.
	Update(lut uint8, data uint64) softmemo.UpdateResult
	// Invalidate resets one logical LUT, returning its cost.
	Invalidate(lut uint8) int
	// Stats reports accumulated activity.
	Stats() softmemo.Stats
}

// ExecInfo describes one executed instruction for trace hooks.
type ExecInfo struct {
	Func    *ir.Function
	Instr   *ir.Instr
	Frame   uint64 // call-frame id (monotonic per activation)
	TID     int    // hardware thread id (0 outside SMT runs)
	Addr    uint64 // effective address for Load/Store/LdCRC
	HasAddr bool
	Taken   bool // conditional branch went to Blk0
}

// Hook observes executed instructions.
type Hook func(ExecInfo)

// Stats summarizes one run.
type Stats struct {
	// Cycles is the completion time of the last instruction.
	Cycles uint64
	// Insns is the total dynamic instruction count.
	Insns uint64
	// MemoInsns counts AxMemo instructions plus compiler-inserted
	// auxiliary instructions (the hit-test branch) — the black bars of
	// Fig. 8.  ld_crc substitutes a normal load and is not counted,
	// matching the paper's accounting.
	MemoInsns uint64
	// Energy holds the priced event counts.
	Energy energy.Counts
	// Memo and Monitor report memoization-unit activity (zero-valued
	// without a unit).
	Memo    memo.Stats
	Monitor memo.MonitorStats
	// Soft reports software-LUT activity (zero-valued without one).
	Soft softmemo.Stats
	// Pipeline stall cycles by cause, accumulated across threads:
	// operand dependencies (scoreboard), structural hazards (all
	// instances of a functional unit busy), and issue-slot pressure
	// (the shared issue width exhausted this cycle).
	StallOperandCycles    uint64
	StallStructuralCycles uint64
	StallIssueCycles      uint64
	// IssueSlots is Cycles × IssueWidth, the issue capacity of the run;
	// Insns/IssueSlots is the issue-width utilization.
	IssueSlots uint64
	// Cache statistics.
	L1D  mem.Stats
	L2   mem.Stats
	DRAM uint64
	// Faults counts injected-fault events across the memoization unit
	// and the caches (zero-valued without a fault plan).
	Faults fault.Stats
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insns) / float64(s.Cycles)
}

// IssueUtilization returns the fraction of issue slots filled.
func (s Stats) IssueUtilization() float64 {
	if s.IssueSlots == 0 {
		return 0
	}
	return float64(s.Insns) / float64(s.IssueSlots)
}

// Result is the outcome of Machine.Run.
type Result struct {
	Rets  []uint64
	Stats Stats
}

// Machine binds a program to a memory image and architectural state.
// Cache and LUT contents persist across Run calls on the same machine.
type Machine struct {
	cfg  Config
	prog *ir.Program
	// bc is the bytecode-compiled program (nil under EngineTree); every
	// thread's entry frame is bound to it (see newThread).
	bc   *bytecode.Program
	mem  *Memory
	hier *mem.Hierarchy
	memo *memo.Unit // nil if not configured
	soft SoftUnit   // nil if not configured
	// softProbe drives the software CRC table's cache access pattern.
	softProbe uint64

	// Timing state (shared pipeline; per-thread issue cursors live in
	// the thread states).
	cycle     uint64 // completion time high-water mark
	lastIssue uint64
	slots     int
	// fuFree is the structural-hazard scoreboard: the cycle at which
	// each instance of each functional unit can accept its next op.  A
	// unit with fewer than fuWidth instances has the missing slots
	// pinned at ^uint64(0), so they are never the earliest free and
	// picking an instance is one compare (see issueAt).
	fuFree [NumFUs][fuWidth]uint64
	// cycleLimit is MaxCycles with 0 (unlimited) mapped to ^uint64(0),
	// so the bytecode engine's budget check is a single compare.
	cycleLimit uint64

	insns     uint64
	memoInsns uint64
	ecounts   energy.Counts
	frameSeq  uint64

	// Stall-cycle attribution (always on: three compares and adds per
	// issue, reported through Stats).
	stallOperand    uint64
	stallStructural uint64
	stallIssue      uint64
	// hot holds the live metric handles of an attached observability
	// sink; nil when disabled, so the per-instruction cost of a
	// disabled sink is a single nil check.
	hot *hotObs

	// Allocation-free interpreter scratch: retired activations are
	// recycled through framePool, and operand-use lists are gathered
	// into usesScratch (see step/opsReady).  Neither affects simulated
	// results — recycled frames are re-zeroed and re-numbered.
	framePool   []*frame
	usesScratch []ir.Reg
}

// New builds a machine for prog (which must be finalized) over image.
func New(prog *ir.Program, image *Memory, cfg Config) (*Machine, error) {
	return newMachine(prog, image, cfg, func() (*mem.Hierarchy, error) {
		return mem.NewHierarchy(cfg.Hierarchy)
	})
}

// newMachine builds a machine with an injected memory hierarchy (the
// cluster passes hierarchies sharing one L2).
func newMachine(prog *ir.Program, image *Memory, cfg Config, mkHier func() (*mem.Hierarchy, error)) (*Machine, error) {
	if cfg.IssueWidth <= 0 {
		return nil, fmt.Errorf("cpu: issue width %d", cfg.IssueWidth)
	}
	// Re-validate even finalized programs: the interpreter indexes its
	// dispatch tables with fields the validator bounds (a fuzzer can
	// hand-build a Program without Finalize).
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if prog.EntryFunc() == nil {
		return nil, fmt.Errorf("cpu: program has no entry function %q", prog.Entry)
	}
	h, err := mkHier()
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, prog: prog, mem: image, hier: h,
		usesScratch: make([]ir.Reg, 0, 16)}
	if cfg.Memo != nil && cfg.Soft != nil {
		return nil, fmt.Errorf("cpu: hardware and software memoization are mutually exclusive")
	}
	if cfg.Memo != nil {
		u, err := memo.New(*cfg.Memo)
		if err != nil {
			return nil, err
		}
		m.memo = u
	}
	m.soft = cfg.Soft
	if reg := cfg.Obs.Reg(); reg != nil {
		m.hot = newHotObs(reg, cfg.ObsRun)
	}
	for fu := range m.fuFree {
		for i := fuCount[fu]; i < fuWidth; i++ {
			m.fuFree[fu][i] = ^uint64(0)
		}
	}
	if m.cfg.MaxInsns == 0 {
		m.cfg.MaxInsns = 2_000_000_000
	}
	m.cycleLimit = cfg.MaxCycles
	if m.cycleLimit == 0 {
		m.cycleLimit = ^uint64(0)
	}
	if cfg.Engine == EngineBytecode {
		bc, err := bytecode.Compile(prog, bcCost)
		if err != nil {
			return nil, err
		}
		m.bc = bc
	}
	return m, nil
}

// Memory returns the machine's memory image.
func (m *Machine) Memory() *Memory { return m.mem }

// MemoUnit returns the attached memoization unit, or nil.
func (m *Machine) MemoUnit() *memo.Unit { return m.memo }

// SMTResult is the outcome of an SMT run: per-thread return values plus
// the shared-machine statistics.
type SMTResult struct {
	Rets  [][]uint64
	Stats Stats
}

// Run executes the entry function with args (raw bit patterns matching
// the entry's parameter types) and returns its results and statistics.
// When the run halts on a budget (ErrInsnBudget, ErrCycleBudget) the
// result carries the partial statistics alongside the error.
func (m *Machine) Run(args ...uint64) (*Result, error) {
	smt, err := m.RunSMT(args)
	if err != nil {
		if smt != nil {
			return &Result{Stats: smt.Stats}, err
		}
		return nil, err
	}
	return &Result{Rets: smt.Rets[0], Stats: smt.Stats}, nil
}

// RunSMT executes one hardware thread per argument set, all entering the
// program's entry function, interleaved on the shared pipeline (§3.2's
// simultaneous multithreading: the threads share the caches and the
// memoization unit, whose hash value registers are indexed by
// {LUT_ID, TID}).  The attached memoization unit must be configured with
// at least as many thread contexts.
func (m *Machine) RunSMT(argSets ...[]uint64) (res *SMTResult, err error) {
	entry := m.prog.EntryFunc()
	if len(argSets) == 0 {
		return nil, fmt.Errorf("cpu: no threads")
	}
	if m.memo != nil && len(argSets) > m.memo.Config().Threads {
		return nil, fmt.Errorf("cpu: %d threads but the memoization unit has %d contexts",
			len(argSets), m.memo.Config().Threads)
	}
	if m.soft != nil && len(argSets) > 1 {
		// The software runtimes keep one hash context per logical
		// LUT with no thread dimension; interleaved threads would
		// corrupt each other's in-flight hashes.
		return nil, fmt.Errorf("cpu: software memoization runtimes are single-threaded")
	}
	threads := make([]*threadState, len(argSets))
	for i, args := range argSets {
		if len(args) != len(entry.ParamTypes) {
			return nil, fmt.Errorf("cpu: entry %s takes %d args, thread %d got %d",
				entry.Name, len(entry.ParamTypes), i, len(args))
		}
		threads[i] = m.newThread(i, args)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cpu: %v", r)
		}
	}()
	if runErr := m.runThreads(threads); runErr != nil {
		if errors.Is(runErr, ErrCycleBudget) || errors.Is(runErr, ErrInsnBudget) {
			// Budget halts are diagnostic outcomes, not failures: hand
			// back the statistics accumulated so far with the error.
			st, statErr := m.finishStats()
			if statErr != nil {
				return nil, runErr
			}
			return &SMTResult{Stats: st}, runErr
		}
		return nil, runErr
	}
	rets := make([][]uint64, len(threads))
	for i, t := range threads {
		rets[i] = t.rets
	}
	st, err := m.finishStats()
	if err != nil {
		return nil, err
	}
	return &SMTResult{Rets: rets, Stats: st}, nil
}

// newThread starts hardware thread id in a fresh activation of the
// entry function with args (one per parameter), bound to the compiled
// program when the machine has one.
func (m *Machine) newThread(id int, args []uint64) *threadState {
	entry := m.prog.EntryFunc()
	f := m.newFrame(entry)
	if m.bc != nil {
		f.bf = m.bc.Entry
	}
	for i, p := range entry.Params {
		f.regs[p] = args[i]
	}
	return &threadState{id: id, cur: f}
}

// finishStats assembles the machine's statistics from its counters.
func (m *Machine) finishStats() (Stats, error) {
	st := Stats{
		Cycles:    m.cycle,
		Insns:     m.insns,
		MemoInsns: m.memoInsns,
		Energy:    m.ecounts,
		L1D:       m.hier.L1D().Stats(),
		L2:        m.hier.L2().Stats(),
		DRAM:      m.hier.DRAMAccesses(),

		StallOperandCycles:    m.stallOperand,
		StallStructuralCycles: m.stallStructural,
		StallIssueCycles:      m.stallIssue,
		IssueSlots:            m.cycle * uint64(m.cfg.IssueWidth),
	}
	st.Faults = sumFaults(st.Faults, m.hier.L1D().FaultStats())
	st.Faults = sumFaults(st.Faults, m.hier.L2().FaultStats())
	if m.memo != nil {
		st.Faults = sumFaults(st.Faults, m.memo.FaultStats())
	}
	st.Energy.Cycles = m.cycle
	st.Energy.L1DAccesses = st.L1D.Accesses()
	st.Energy.L2Accesses = st.L2.Accesses()
	st.Energy.DRAMAccesses = st.DRAM
	if m.soft != nil {
		st.Soft = m.soft.Stats()
	}
	if m.memo != nil {
		ms := m.memo.Stats()
		st.Memo = ms
		st.Monitor = m.memo.MonitorStats()
		st.Energy.CRCBytes = ms.FedBytes
		st.Energy.HVRAccesses = ms.FedOps + ms.Lookups
		st.Energy.L1LUTOps = ms.Lookups + ms.Updates
		st.Energy.L2LUTOps = ms.L2Probes
		if m.memo.Config().L2 != nil {
			st.Energy.L2LUTOps += ms.Updates
		}
		st.Energy.MonitorOps = st.Monitor.Samples
	}
	return st, nil
}

// sumFaults accumulates fault counters component-wise.
func sumFaults(a, b fault.Stats) fault.Stats {
	a.LUTBitFlips += b.LUTBitFlips
	a.HVRBitFlips += b.HVRBitFlips
	a.DroppedUpdates += b.DroppedUpdates
	a.StuckEntries += b.StuckEntries
	a.CacheTagFlips += b.CacheTagFlips
	return a
}
