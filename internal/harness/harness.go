// Package harness runs the paper's experiments: it builds a workload,
// applies the AxMemo compiler transformation for the requested hardware
// or software configuration, executes it on the timing simulator, scores
// output quality, and emits the rows of every table and figure in the
// evaluation section (ISCA'19 §6).
package harness

import (
	"fmt"

	"axmemo/internal/compiler"
	"axmemo/internal/core"
	"axmemo/internal/cpu"
	"axmemo/internal/crc"
	"axmemo/internal/energy"
	"axmemo/internal/fault"
	"axmemo/internal/memo"
	"axmemo/internal/obs"
	"axmemo/internal/quality"
	"axmemo/internal/workloads"
)

// Mode selects what services the memo instructions.
type Mode int

// Execution modes.
const (
	// ModeBaseline runs the unmemoized program.
	ModeBaseline Mode = iota
	// ModeHW attaches the AxMemo hardware unit.
	ModeHW
	// ModeSoftLUT uses the §6.2 software-LUT implementation.
	ModeSoftLUT
	// ModeATM uses the ATM prior-work runtime.
	ModeATM
)

// Config names one experimental configuration.
type Config struct {
	// Name is the label used in figure rows (e.g. "L1 (8KB)+L2 (512KB)").
	Name string
	Mode Mode
	// L1KB and L2KB size the hardware LUT levels (ModeHW); L2KB = 0
	// disables the second level.
	L1KB int
	L2KB int
	// Trunc overrides the Table 2 truncation defaults (nil keeps them;
	// a zero slice disables approximation as in Fig. 11).
	Trunc []uint8
	// Scale is the input-size multiplier (1 = test scale).
	Scale int
	// MonitorOff disables the quality-monitoring unit.
	MonitorOff bool
	// TrackCollisions enables hash-collision accounting (hardware).
	TrackCollisions bool
	// TotalL2CacheKB shrinks the processor's shared L2 (default 1024;
	// the §6.2 sensitivity study uses 512).
	TotalL2CacheKB int
	// CRCWidth overrides the 32-bit CRC (16/32/64; ablation).
	CRCWidth uint
	// DataBytes8 forces the 4-way × 8-byte LUT geometry (ablation);
	// kernels with 8-byte outputs force it regardless.
	DataBytes8 bool
	// Adaptive enables the §3.1 runtime truncation controller.
	Adaptive bool
	// CRCBytesPerCycle overrides the hash unit's absorption rate
	// (0 keeps the default unrolled 4 B/cycle; 1 models Table 4's
	// byte-serial unit).
	CRCBytesPerCycle int
	// Faults, if non-nil and enabled, injects the planned hardware
	// faults into the memoization unit and the caches (ModeHW; cache
	// tag flips apply in every mode).
	Faults *fault.Plan
	// GuardBudget arms the per-LUT quality guard with this
	// relative-error budget (> 0; requires the monitor, so it overrides
	// MonitorOff).
	GuardBudget float64
	// GuardCooldown overrides the guard's re-enable delay in lookups
	// (0 = default).
	GuardCooldown uint64
	// MaxCycles caps simulated time; the run fails with
	// cpu.ErrCycleBudget beyond it (0 = unlimited).
	MaxCycles uint64
	// Obs, if non-nil, collects the run's metrics and timeline events
	// under the "workload/config" run label.  Counter publication is
	// additive, so many runs may share one sink.  Excluded from the
	// suite-cache key: it never changes simulation results.
	Obs *obs.Sink
	// ObsPID is the trace process lane for this run's events (a Suite
	// whose sink has a tracer assigns stable lanes per sweep cell).
	ObsPID int

	// engine is the simulator's execution engine.  Only this package's
	// tests set it, to run the tree oracle; being unexported, it never
	// reaches JSON, so it is in no store key and on no wire.
	engine cpu.Engine
}

// Baseline returns the no-memoization configuration.
func Baseline() Config { return Config{Name: "Baseline", Mode: ModeBaseline, Scale: 1} }

// HW builds a hardware configuration with the given LUT sizes in KB.
func HW(name string, l1KB, l2KB int) Config {
	return Config{Name: name, Mode: ModeHW, L1KB: l1KB, L2KB: l2KB, Scale: 1}
}

// StandardConfigs returns the LUT sweep of Figs. 7-10: L1 (4KB), L1
// (8KB), L1 (8KB)+L2 (256KB), L1 (8KB)+L2 (512KB), and the software LUT.
func StandardConfigs() []Config {
	return []Config{
		HW("L1 (4KB)", 4, 0),
		HW("L1 (8KB)", 8, 0),
		HW("L1 (8KB)+L2 (256KB)", 8, 256),
		HW("L1 (8KB)+L2 (512KB)", 8, 512),
		{Name: "Software LUT", Mode: ModeSoftLUT, Scale: 1},
	}
}

// BestConfig is the largest hardware configuration, used by Figs. 10b
// and 11.
func BestConfig() Config { return HW("L1 (8KB)+L2 (512KB)", 8, 512) }

// Result is the measured outcome of one run.
type Result struct {
	Workload string
	Config   string
	Mode     Mode

	Cycles    uint64
	Insns     uint64
	MemoInsns uint64
	EnergyPJ  float64
	// Energy is the per-component price breakdown.
	Energy energy.Breakdown

	HitRate    float64
	L1HitRate  float64
	Collisions uint64
	Monitor    memo.MonitorStats
	// Faults counts the injected-fault events delivered during the run.
	Faults fault.Stats

	// Quality is E_r (Eq. 2) against the golden outputs, or the
	// misclassification rate for Jmeint.
	Quality float64
	// MeanError is the mean clamped element-wise relative error in
	// [0, 1] — the score a guard budget is checked against (equals
	// Quality for misclassification workloads).
	MeanError float64
	// ErrorCDF[i] is the share of output elements whose clamped
	// relative error is at most Fig. 10b's i-th point (0, 1e-6, 1e-5,
	// 1e-4, 1e-3, 1e-2, 1e-1); nil for misclassification workloads.
	ErrorCDF []float64
}

// MaxSizeKB caps every size a Config may ask for — L1KB, L2KB and
// TotalL2CacheKB — at memo.MaxLUTBytes, sixteen times the largest table
// or cache any figure or benchmark builds (the 1 MB shared L2).
const MaxSizeKB = memo.MaxLUTBytes >> 10

// Check reports whether w can run under cfg: Mode is one of the four
// modes, Trunc is nil or holds one entry per region, and no size exceeds
// MaxSizeKB.  Run checks before it builds anything, and the server
// checks every cell it is sent, so a hostile configuration is refused
// instead of panicking, allocating, or running as hardware and
// reporting no hits.
func (cfg Config) Check(w *workloads.Workload) error {
	if cfg.Mode < ModeBaseline || cfg.Mode > ModeATM {
		return fmt.Errorf("harness: unknown mode %d", cfg.Mode)
	}
	if cfg.Trunc != nil && len(cfg.Trunc) != len(w.TruncBits) {
		return fmt.Errorf("harness: %s: %d truncation overrides for %d regions",
			w.Name, len(cfg.Trunc), len(w.TruncBits))
	}
	for _, kb := range [...]int{cfg.L1KB, cfg.L2KB, cfg.TotalL2CacheKB} {
		if kb > MaxSizeKB {
			return fmt.Errorf("harness: size %d KB exceeds the %d KB cap", kb, MaxSizeKB)
		}
	}
	return nil
}

// errorCDFPoints are the element-wise relative errors at which every
// Result samples its error CDF: Fig. 10b's columns.
var errorCDFPoints = []float64{0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}

// Run executes one workload under one configuration.
func Run(w *workloads.Workload, cfg Config) (*Result, error) {
	if err := cfg.Check(w); err != nil {
		return nil, err
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	obsRun := w.Name + "/" + cfg.Name
	prog := w.Build()
	ccfg := cpu.DefaultConfig()
	ccfg.Engine = cfg.engine
	ccfg.Obs = cfg.Obs
	ccfg.ObsPID = cfg.ObsPID
	ccfg.ObsRun = obsRun
	if cfg.TotalL2CacheKB > 0 {
		ccfg.Hierarchy.L2.SizeBytes = cfg.TotalL2CacheKB << 10
	}
	opts := core.RunOptions{
		L1KB:            cfg.L1KB,
		L2KB:            cfg.L2KB,
		DisableMonitor:  cfg.MonitorOff,
		TrackCollisions: cfg.TrackCollisions,
		SoftwareLUT:     cfg.Mode == ModeSoftLUT,
		ATM:             cfg.Mode == ModeATM,
		Faults:          cfg.Faults,
		GuardBudget:     cfg.GuardBudget,
		GuardCooldown:   cfg.GuardCooldown,
		MaxCycles:       cfg.MaxCycles,
	}
	base := memo.DefaultConfig()
	l1Bytes := 8 << 10
	var regions []compiler.Region
	if cfg.Mode != ModeBaseline {
		regions = w.Regions(cfg.Trunc)
		if err := compiler.Transform(prog, regions); err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", w.Name, cfg.Name, err)
		}
	}
	if cfg.Mode == ModeHW {
		if cfg.L1KB > 0 {
			l1Bytes = cfg.L1KB << 10
		}
		if cfg.DataBytes8 {
			base.L1.DataBytes = 8
		}
		if cfg.CRCWidth != 0 {
			params, err := crc.ByWidth(cfg.CRCWidth)
			if err != nil {
				return nil, err
			}
			base.CRC = params
		}
		if cfg.Adaptive {
			base.Adaptive = memo.DefaultAdaptive()
		}
		if cfg.CRCBytesPerCycle > 0 {
			base.CRCBytesPerCycle = cfg.CRCBytesPerCycle
		}
		base.Obs = cfg.Obs
		base.ObsPID = cfg.ObsPID
	}

	img := cpu.NewMemory(w.MemBytes(cfg.Scale))
	inst := w.Setup(img, cfg.Scale)
	if err := img.Err(); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: staging inputs: %w", w.Name, cfg.Name, err)
	}
	m, err := core.BuildMachine(prog, regions, img, ccfg, base, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", w.Name, cfg.Name, err)
	}
	run, err := m.Run(inst.Args...)
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", w.Name, cfg.Name, err)
	}
	st := run.Stats
	if reg := cfg.Obs.Reg(); reg != nil {
		st.PublishStats(reg, obsRun)
		if cfg.Mode == ModeHW {
			st.Memo.Publish(reg, obsRun)
			st.Monitor.Publish(reg, obsRun)
		}
	}
	if tr := cfg.Obs.Tracer(); tr != nil {
		// One span per simulation on its own process lane; timestamps
		// are simulated cycles, so the timeline is deterministic.
		tr.NameProcess(cfg.ObsPID, obsRun)
		tr.Span("run", "sim", cfg.ObsPID, 0, 0, st.Cycles,
			"workload", w.Name, "config", cfg.Name,
			"insns", fmt.Sprintf("%d", st.Insns))
	}

	model := energy.Default().ForL1LUT(l1Bytes)
	breakdown := model.Price(st.Energy)
	res := &Result{
		Workload:  w.Name,
		Config:    cfg.Name,
		Mode:      cfg.Mode,
		Cycles:    st.Cycles,
		Insns:     st.Insns,
		MemoInsns: st.MemoInsns,
		EnergyPJ:  breakdown.TotalPJ(),
		Energy:    breakdown,
		Monitor:   st.Monitor,
		Faults:    st.Faults,
	}
	switch cfg.Mode {
	case ModeHW:
		res.HitRate = st.Memo.HitRate()
		res.L1HitRate = st.Memo.L1HitRate()
		res.Collisions = st.Memo.Collisions
	case ModeSoftLUT, ModeATM:
		res.HitRate = st.Soft.HitRate()
		res.Collisions = st.Soft.Collisions
	}

	if w.Misclass {
		q, err := quality.Misclassification(inst.OutputsBool(img), inst.GoldenBool)
		if err != nil {
			return nil, err
		}
		res.Quality = q
		res.MeanError = q
	} else {
		outs := inst.Outputs(img)
		q, err := quality.OutputError(outs, inst.Golden)
		if err != nil {
			return nil, err
		}
		res.Quality = q
		errs, err := quality.ElementErrors(outs, inst.Golden)
		if err != nil {
			return nil, err
		}
		res.MeanError = quality.Mean(errs)
		res.ErrorCDF = quality.CountPoints(errs, errorCDFPoints)
	}
	if err := img.Err(); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: reading outputs: %w", w.Name, cfg.Name, err)
	}
	cfg.Obs.Tracer().Instant("quality.scored", "sim", cfg.ObsPID, 0, st.Cycles,
		"quality", fmt.Sprintf("%.6g", res.Quality))
	return res, nil
}
