// Package core ties the AxMemo pieces together into the workflow of the
// paper's Fig. 5: trace a program on sample inputs, analyze its dynamic
// data dependence graph for memoizable regions, select input truncation
// levels against an error bound, rewrite the regions into the
// lookup/compute/update structure, and execute the result on the modeled
// core with a memoization unit attached.
//
// It is the engine behind the public root package (axmemo) and the
// command-line tools.
package core

import (
	"fmt"

	"axmemo/internal/atm"
	"axmemo/internal/compiler"
	"axmemo/internal/cpu"
	"axmemo/internal/dddg"
	"axmemo/internal/fault"
	"axmemo/internal/ir"
	"axmemo/internal/memo"
	"axmemo/internal/softmemo"
	"axmemo/internal/trace"
)

// System binds a program to its memoization regions.
type System struct {
	Program *ir.Program
	Regions []compiler.Region

	transformed bool
}

// NewSystem wraps a finalized program and its region specs.
func NewSystem(prog *ir.Program, regions ...compiler.Region) *System {
	return &System{Program: prog, Regions: regions}
}

// Analyze runs the program on the given arguments with the dynamic
// tracer attached and returns the DDDG candidate analysis (Fig. 5 ①–③).
// It must be called before Transform: the analysis needs the unmemoized
// program.  maxEntries bounds the trace (0 = default).
func (s *System) Analyze(img *cpu.Memory, args []uint64, maxEntries int) (dddg.Analysis, error) {
	if s.transformed {
		return dddg.Analysis{}, fmt.Errorf("core: analyze before Transform, not after")
	}
	rec := trace.NewRecorder(maxEntries)
	cfg := cpu.DefaultConfig()
	cfg.Hook = rec.Hook()
	m, err := cpu.New(s.Program, img, cfg)
	if err != nil {
		return dddg.Analysis{}, err
	}
	if _, err := m.Run(args...); err != nil {
		return dddg.Analysis{}, err
	}
	g := dddg.Build(rec.Entries())
	return g.Analyze(dddg.DefaultSearch(), 0.5), nil
}

// SelectTruncation profiles increasing uniform truncation across all
// regions using eval (which must rebuild and run the full application at
// the given level and return its output error) and rewrites the regions'
// truncation fields with the chosen level (Fig. 5 ④, first half).
func (s *System) SelectTruncation(eval compiler.Evaluator, imageOutput bool, maxBits uint) (uint, error) {
	bits, err := compiler.SelectTruncation(eval, compiler.ErrorBound(imageOutput), maxBits)
	if err != nil {
		return 0, err
	}
	for ri := range s.Regions {
		r := &s.Regions[ri]
		for i := range r.ParamTrunc {
			r.ParamTrunc[i] = uint8(bits)
		}
		if r.ConvertLoads {
			r.LoadTrunc = uint8(bits)
		}
	}
	return bits, nil
}

// Transform rewrites the regions into the Fig. 1 branch structure.  It
// may be applied once per System.
func (s *System) Transform() error {
	if s.transformed {
		return fmt.Errorf("core: program already transformed")
	}
	if err := compiler.Transform(s.Program, s.Regions); err != nil {
		return err
	}
	s.transformed = true
	return nil
}

// Transformed reports whether Transform has run.
func (s *System) Transformed() bool { return s.transformed }

// RunOptions selects the execution configuration for NewMachine.
type RunOptions struct {
	// L1KB sizes the dedicated L1 LUT (default 8).
	L1KB int
	// L2KB sizes the optional L2 LUT carved from the shared cache
	// (0 = none).
	L2KB int
	// DisableMonitor turns the quality-monitoring unit off.
	DisableMonitor bool
	// TrackCollisions enables hash-collision accounting.
	TrackCollisions bool
	// SoftwareLUT services the memo instructions with the §6.2
	// software implementation instead of hardware.
	SoftwareLUT bool
	// ATM services them with the prior-work ATM runtime.
	ATM bool
	// Faults, if non-nil and enabled, injects the planned hardware
	// faults into the memoization unit and the caches.
	Faults *fault.Plan
	// GuardBudget, if > 0, arms the per-LUT quality guard with this
	// relative-error budget: a LUT whose sampled error estimate exceeds
	// it is invalidated and bypassed until the guard's cooldown expires.
	// Requires the monitor (ignored under SoftwareLUT/ATM).
	GuardBudget float64
	// GuardCooldown overrides the guard's re-enable delay, counted in
	// lookups addressed to the disabled LUT (0 = default).
	GuardCooldown uint64
	// MaxCycles caps simulated time; see cpu.Config.MaxCycles.
	MaxCycles uint64
}

// NewMachine builds a simulator for the (transformed) program over img.
// With zero-valued options it attaches the paper's default hardware: an
// 8 KB L1 LUT, no L2 LUT, quality monitoring on.  A system with no
// regions memoizes nothing and gets no unit.
func (s *System) NewMachine(img *cpu.Memory, opts RunOptions) (*cpu.Machine, error) {
	if !s.transformed {
		return nil, fmt.Errorf("core: Transform before NewMachine (or run the baseline directly with cpu.New)")
	}
	return BuildMachine(s.Program, s.Regions, img, cpu.DefaultConfig(), memo.DefaultConfig(), opts)
}

// BuildMachine is the one translation of a run configuration into a
// simulator: System.NewMachine and the experiment harness both build
// through it.  cfg and base start the simulator and memoization-unit
// configurations with whatever opts does not name (execution engine,
// observability, shared-cache size, CRC unit, adaptive truncation).
// prog must already be transformed for regions.  With no regions
// nothing is memoized: no unit is attached, and of opts only the cycle
// budget and the fault plan's cache faults apply.
func BuildMachine(prog *ir.Program, regions []compiler.Region, img *cpu.Memory, cfg cpu.Config, base memo.Config, opts RunOptions) (*cpu.Machine, error) {
	cfg.MaxCycles = opts.MaxCycles
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, err
		}
		cfg.Hierarchy.Faults = opts.Faults
	}
	var kinds map[uint8]memo.OutputKind
	switch {
	case opts.SoftwareLUT && opts.ATM:
		return nil, fmt.Errorf("core: SoftwareLUT and ATM are mutually exclusive")
	case len(regions) == 0:
	case opts.SoftwareLUT:
		u, err := softmemo.New(softmemo.DefaultConfig())
		if err != nil {
			return nil, err
		}
		cfg.Soft = u
	case opts.ATM:
		u, err := atm.New(atm.DefaultConfig())
		if err != nil {
			return nil, err
		}
		cfg.Soft = u
	default:
		if opts.L1KB > 0 {
			base.L1.SizeBytes = opts.L1KB << 10
		}
		if opts.L2KB > 0 {
			base.L2 = &memo.LUTConfig{SizeBytes: opts.L2KB << 10, DataBytes: base.L1.DataBytes, HitLatency: 13}
			// The L2 LUT is carved out of the shared cache: reserve ways
			// (64 KB per way of the 1 MB/16-way L2; proportional for
			// other sizes).
			wayBytes := cfg.Hierarchy.L2.SizeBytes / cfg.Hierarchy.L2.Ways
			cfg.Hierarchy.L2ReservedWays = (opts.L2KB << 10) / wayBytes
		}
		base.Monitor.Enabled = !opts.DisableMonitor
		base.TrackCollisions = opts.TrackCollisions
		base.Faults = opts.Faults
		if opts.GuardBudget > 0 {
			base.Monitor.Enabled = true // the guard samples through the monitor
			base.Monitor.Guard = memo.DefaultGuard(opts.GuardBudget)
			if opts.GuardCooldown > 0 {
				base.Monitor.Guard.CooldownLookups = opts.GuardCooldown
			}
		}
		full, k, err := compiler.MemoConfigFor(prog, regions, base)
		if err != nil {
			return nil, err
		}
		kinds = k
		cfg.Memo = &full
	}
	m, err := cpu.New(prog, img, cfg)
	if err != nil {
		return nil, err
	}
	for lut, kind := range kinds {
		if err := m.MemoUnit().SetOutputKind(lut, kind); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// DiscoverRegions suggests kernel functions to memoize from a DDDG
// analysis: it maps each unique candidate group back to the function
// containing its static instructions and ranks functions by the dynamic
// weight their candidates cover.  It is the automatic counterpart of the
// hand-written region specs (§5's "programmers may specify specific
// functions for analysis").
func DiscoverRegions(prog *ir.Program, a dddg.Analysis) []string {
	// Map SIDs to functions.
	owner := map[int32]string{}
	for name, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				owner[int32(in.SID)] = name
			}
		}
	}
	weight := map[string]int64{}
	for _, grp := range a.UniqueGroups {
		votes := map[string]int{}
		for _, sid := range grp.SIDs {
			votes[owner[sid]]++
		}
		best, bestN := "", 0
		for fn, n := range votes {
			if n > bestN {
				best, bestN = fn, n
			}
		}
		if best != "" && best != prog.Entry {
			weight[best] += grp.Weight
		}
	}
	var names []string
	for n := range weight {
		names = append(names, n)
	}
	// Sort by covered weight, descending; ties by name.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0; j-- {
			cur, prev := names[j], names[j-1]
			if weight[cur] > weight[prev] || (weight[cur] == weight[prev] && cur < prev) {
				names[j], names[j-1] = prev, cur
			} else {
				break
			}
		}
	}
	return names
}
