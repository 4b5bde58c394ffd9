// Package axmemo is a from-scratch reproduction of "AxMemo:
// Hardware-Compiler Co-Design for Approximate Code Memoization"
// (ISCA 2019).  It implements the paper's memoization hardware (CRC-based
// hashing, hash value registers, a two-level lookup table, quality
// monitoring), the five ISA extensions, the compiler workflow that
// discovers and rewrites memoizable regions, a timing/energy model of the
// evaluation platform, the ten benchmarks of the evaluation, and a
// harness that regenerates every table and figure.
//
// Quick start — memoize a custom kernel:
//
//	p := axmemo.NewProgram("main")
//	axmemo.BuildLibm(p)
//	// ... build a kernel function and a driver with the IR builder ...
//	sys := axmemo.NewSystem(p, axmemo.Region{
//		Func: "kernel", LUT: 0, InputParams: []int{0}, ParamTrunc: []uint8{8},
//	})
//	if err := sys.Transform(); err != nil { ... }
//	img := axmemo.NewMemory(1 << 20)
//	m, err := sys.NewMachine(img, axmemo.RunOptions{L1KB: 8, L2KB: 512})
//	res, err := m.Run(args...)
//
// See the examples/ directory for complete programs and DESIGN.md for the
// system inventory and the per-experiment index.
package axmemo

import (
	"axmemo/internal/compiler"
	"axmemo/internal/core"
	"axmemo/internal/cpu"
	"axmemo/internal/dddg"
	"axmemo/internal/fault"
	"axmemo/internal/harness"
	"axmemo/internal/ir"
	"axmemo/internal/libm"
	"axmemo/internal/memo"
	"axmemo/internal/workloads"
)

// IR construction.  Programs are built with the Builder API; see
// package repro/internal/ir for the full instruction set.
type (
	// Program is a set of IR functions with an entry point.
	Program = ir.Program
	// Function is a single IR function.
	Function = ir.Function
	// Block is a basic block.
	Block = ir.Block
	// Builder emits IR instructions into a block.
	Builder = ir.Builder
	// Type is an IR scalar type.
	Type = ir.Type
	// Op is an IR opcode.
	Op = ir.Op
	// Reg is a virtual register.
	Reg = ir.Reg
)

// Scalar types.
const (
	I32 = ir.I32
	I64 = ir.I64
	F32 = ir.F32
	F64 = ir.F64
)

// Opcodes, re-exported for kernel construction with Builder.Bin/Un.
const (
	OpAdd   = ir.Add
	OpSub   = ir.Sub
	OpMul   = ir.Mul
	OpSDiv  = ir.SDiv
	OpAnd   = ir.And
	OpOr    = ir.Or
	OpXor   = ir.Xor
	OpShl   = ir.Shl
	OpShr   = ir.Shr
	OpFAdd  = ir.FAdd
	OpFSub  = ir.FSub
	OpFMul  = ir.FMul
	OpFDiv  = ir.FDiv
	OpFNeg  = ir.FNeg
	OpFAbs  = ir.FAbs
	OpFMin  = ir.FMin
	OpFMax  = ir.FMax
	OpSqrt  = ir.Sqrt
	OpFloor = ir.Floor
	OpCmpEQ = ir.CmpEQ
	OpCmpNE = ir.CmpNE
	OpCmpLT = ir.CmpLT
	OpCmpLE = ir.CmpLE
	OpCmpGT = ir.CmpGT
	OpCmpGE = ir.CmpGE
)

// NewProgram creates an empty program whose entry function is named
// entry.
func NewProgram(entry string) *Program { return ir.NewProgram(entry) }

// ParseProgram reads a program in the textual IR format produced by
// Program.Dump (see the quickstart's output or `axmemo -dump`).
func ParseProgram(src string) (*Program, error) { return ir.Parse(src) }

// At positions a Builder at block b of function f.
func At(f *Function, b *Block) *Builder { return ir.At(f, b) }

// BuildLibm registers the software math library (sinf, cosf, expf, logf,
// asinf, acosf, atanf, atan2f) in p; kernels call them by the Fn*
// names.
func BuildLibm(p *Program) { libm.BuildInto(p) }

// Software math routine names registered by BuildLibm.
const (
	FnSin   = libm.FnSin
	FnCos   = libm.FnCos
	FnExp   = libm.FnExp
	FnLog   = libm.FnLog
	FnAsin  = libm.FnAsin
	FnAcos  = libm.FnAcos
	FnAtan  = libm.FnAtan
	FnAtan2 = libm.FnAtan2
)

// Memoization system.
type (
	// Region describes one memoizable kernel (one logical LUT).
	Region = compiler.Region
	// System drives the analyze → transform → execute workflow.
	System = core.System
	// RunOptions selects the hardware or software configuration.
	RunOptions = core.RunOptions
	// Analysis is the DDDG candidate report (Table 1 metrics).
	Analysis = dddg.Analysis
	// MemoConfig is the raw memoization-unit configuration.
	MemoConfig = memo.Config
)

// NewSystem binds a finalized program to its memoization regions.
func NewSystem(p *Program, regions ...Region) *System {
	return core.NewSystem(p, regions...)
}

// DiscoverRegions ranks kernel functions by the candidate weight a DDDG
// analysis assigns to them.
func DiscoverRegions(p *Program, a Analysis) []string {
	return core.DiscoverRegions(p, a)
}

// Execution.
type (
	// Machine is the timing simulator (modeled in-order core, caches,
	// memoization unit).
	Machine = cpu.Machine
	// Memory is a simulated memory image.
	Memory = cpu.Memory
	// Stats summarizes one run.
	Stats = cpu.Stats
	// SMTResult is the outcome of a simultaneous-multithreading run
	// (Machine.RunSMT): per-thread results plus shared statistics.
	SMTResult = cpu.SMTResult
	// Cluster is a multi-core system: private L1s and memoization
	// units per core, one shared L2 (Table 3's two-core platform).
	Cluster = cpu.Cluster
	// ClusterResult is the outcome of a cluster run.
	ClusterResult = cpu.ClusterResult
	// MachineConfig is the raw core configuration.
	MachineConfig = cpu.Config
)

// NewMemory allocates a zeroed memory image.
func NewMemory(size int) *Memory { return cpu.NewMemory(size) }

// NewBaselineMachine builds a simulator with no memoization hardware, for
// baseline measurements of an unmemoized program.
func NewBaselineMachine(p *Program, img *Memory) (*Machine, error) {
	return cpu.New(p, img, cpu.DefaultConfig())
}

// NewCluster builds an n-core system over one memory image: private L1
// caches and memoization units per core, one shared L2.  cfg.Memo (if
// set) is instantiated once per core.
func NewCluster(p *Program, img *Memory, cfg MachineConfig, cores int) (*Cluster, error) {
	return cpu.NewCluster(p, img, cfg, cores)
}

// Simulator error taxonomy.  Machine.Run and friends return wrapped
// sentinels; triage with errors.Is.  Budget errors (ErrInsnBudget,
// ErrCycleBudget) come with a non-nil result carrying the partial
// statistics accumulated up to the halt.
var (
	// ErrOOBAccess reports a load or store outside the memory image.
	ErrOOBAccess = cpu.ErrOOBAccess
	// ErrOOM reports memory-image exhaustion during allocation.
	ErrOOM = cpu.ErrOOM
	// ErrInsnBudget reports a run halted by RunOptions.MaxInsns.
	ErrInsnBudget = cpu.ErrInsnBudget
	// ErrCycleBudget reports a run halted by the MaxCycles watchdog.
	ErrCycleBudget = cpu.ErrCycleBudget
)

// Fault injection and resilience experiments.
type (
	// FaultPlan configures deterministic, seeded hardware-fault
	// injection: LUT/HVR bit flips, dropped updates, stuck-at entries
	// and cache tag flips (see RunOptions.Faults).
	FaultPlan = fault.Plan
	// FaultStats counts the fault events delivered during a run.
	FaultStats = fault.Stats
	// FaultPoint is one row of a fault sweep.
	FaultPoint = harness.FaultPoint
	// FaultSweepConfig parametrizes FaultSweep.
	FaultSweepConfig = harness.FaultSweepConfig
)

// FaultSweep measures how output quality and hit rate degrade as LUT
// storage gets noisier, with an optional quality-guarded column per
// flip rate.
func FaultSweep(w *Workload, cfg FaultSweepConfig) ([]FaultPoint, error) {
	return harness.FaultSweep(w, cfg)
}

// Benchmarks and experiments.
type (
	// Workload is one of the ten evaluated benchmarks.
	Workload = workloads.Workload
	// Suite runs experiment cells through its result store and emits
	// the paper's figures.
	Suite = harness.Suite
	// Figure is one reproduced table/figure as text rows.
	Figure = harness.Figure
	// ExperimentConfig names one experimental configuration.
	ExperimentConfig = harness.Config
	// ExperimentResult is the measured outcome of one run.
	ExperimentResult = harness.Result
)

// Experiment modes.
const (
	ModeBaseline = harness.ModeBaseline
	ModeHW       = harness.ModeHW
	ModeSoftLUT  = harness.ModeSoftLUT
	ModeATM      = harness.ModeATM
)

// Benchmarks returns the ten benchmarks in Table 2 order.
func Benchmarks() []*Workload { return workloads.All() }

// Benchmark returns one benchmark by name.
func Benchmark(name string) (*Workload, error) { return workloads.ByName(name) }

// NewSuite prepares an experiment suite at the given input scale
// (1 = test scale; larger values approach the paper's dataset sizes).
func NewSuite(scale int) *Suite { return harness.NewSuite(scale) }

// RunExperiment executes one workload under one configuration.
func RunExperiment(w *Workload, cfg ExperimentConfig) (*ExperimentResult, error) {
	return harness.Run(w, cfg)
}
