// Package memo implements AxMemo's memoization unit (ISCA'19 §3, Fig. 2):
// the CRC hashing unit, the Hash Value Registers (HVRs), and the
// set-associative lookup table (LUT) with an optional second level carved
// out of the last-level cache.  It also implements the quality-monitoring
// scheme of §6 ("every 1 out of 100 LUT hits is ignored ...").
//
// The unit is a functional model with the paper's timing attached: input
// bytes drain into the CRC unit at one byte per cycle (Table 4), an L1 LUT
// lookup costs 2 cycles, an L2 LUT lookup 13 cycles, and an update 2
// cycles.
package memo

import (
	"fmt"

	"axmemo/internal/crc"
	"axmemo/internal/fault"
	"axmemo/internal/obs"
)

// LUT set geometry (§3.3): one set of LUT entries fits exactly one 64-byte
// last-level cache line, holding either 8 ways of {4B tag, 4B data} or 4
// ways of {4B tag, 8B data}.
const SetBytes = 64

// MaxLUTBytes caps a LUT level's size: 16 MB, sixteen times the largest
// LUT any figure, benchmark or test builds.  A LUT's set slots are
// allocated when it is built, so a larger size could only exhaust memory.
const MaxLUTBytes = 16 << 20

// LUTConfig describes one LUT level.
type LUTConfig struct {
	// SizeBytes is the total capacity (tags + data), e.g. 4<<10.
	SizeBytes int
	// DataBytes is the LUT data width: 4 (8-way sets) or 8 (4-way
	// sets, half the tags unused).
	DataBytes int
	// HitLatency is the lookup latency in cycles (Table 4: 2 for the
	// L1 LUT, 13 for the L2 LUT).
	HitLatency int
}

// Ways returns the set associativity implied by the data width.
func (c LUTConfig) Ways() int {
	if c.DataBytes == 8 {
		return 4
	}
	return 8
}

// Sets returns the number of sets.
func (c LUTConfig) Sets() int { return c.SizeBytes / SetBytes }

// Entries returns the total number of LUT entries.
func (c LUTConfig) Entries() int { return c.Sets() * c.Ways() }

// Validate reports whether the geometry is realizable.
func (c LUTConfig) Validate() error {
	if c.DataBytes != 4 && c.DataBytes != 8 {
		return fmt.Errorf("memo: LUT data width %d, want 4 or 8", c.DataBytes)
	}
	if c.SizeBytes < SetBytes || c.SizeBytes%SetBytes != 0 {
		return fmt.Errorf("memo: LUT size %d not a multiple of the %d-byte set", c.SizeBytes, SetBytes)
	}
	if c.SizeBytes > MaxLUTBytes {
		return fmt.Errorf("memo: LUT size %d exceeds the %d-byte cap", c.SizeBytes, MaxLUTBytes)
	}
	if s := c.Sets(); s&(s-1) != 0 {
		return fmt.Errorf("memo: LUT set count %d not a power of two", s)
	}
	if c.HitLatency <= 0 {
		return fmt.Errorf("memo: LUT hit latency %d", c.HitLatency)
	}
	return nil
}

// OutputKind tells the quality monitor how to interpret LUT data when
// comparing a memoized output against a freshly computed one.
type OutputKind uint8

// Output layouts for quality monitoring.
const (
	OutF32    OutputKind = iota // one float32 in the low 4 bytes
	OutF64                      // one float64
	OutTwoF32                   // two float32 lanes packed into 8 bytes
	OutI32                      // one int32
	OutPacked                   // opaque packed bytes; compared lane-wise as 4x i16
)

// MonitorConfig parametrizes the quality-monitoring unit (§6).
type MonitorConfig struct {
	// Enabled turns monitoring on.
	Enabled bool
	// SamplePeriod ignores one out of this many LUT hits (paper: 100).
	SamplePeriod int
	// WindowSize is how many comparisons form one decision window
	// (paper: 100).
	WindowSize int
	// ErrThreshold is the per-sample relative error considered "large"
	// (paper: 0.10).
	ErrThreshold float64
	// BadFraction disables memoization when more than this fraction of
	// a window's samples exceed ErrThreshold (paper: 0.10).
	BadFraction float64
	// Guard configures the per-LUT online quality guard, a finer-grained
	// companion to the global kill switch above: each logical LUT tracks
	// a running error estimate from the sampled exact recomputations and
	// is individually disabled (INVALIDATE + bypass) when the estimate
	// exceeds its region's quality budget, then re-enabled after a
	// cooldown.  Degradation is graceful: a faulty region falls back to
	// exact execution while healthy regions keep memoizing.
	Guard GuardConfig
}

// GuardConfig parametrizes the per-LUT quality guard.
type GuardConfig struct {
	// Enabled turns the guard on (requires the monitor).
	Enabled bool
	// Budget is every region's mean-relative-error budget; a LUT whose
	// windowed estimate exceeds it is disabled.
	Budget float64
	// Window is the number of sampled comparisons per estimate
	// (default 16).
	Window int
	// CooldownLookups is how many lookups a disabled LUT bypasses
	// before being re-enabled to probe whether quality recovered
	// (default 4096).
	CooldownLookups uint64
	// MaxDisables permanently disables a LUT after this many guard
	// trips (0 = retry forever).
	MaxDisables int
}

// DefaultGuard returns the guard defaults with the given budget.
func DefaultGuard(budget float64) GuardConfig {
	return GuardConfig{Enabled: true, Budget: budget, Window: 16, CooldownLookups: 4096}
}

// DefaultMonitor returns the paper's quality-monitor settings.
func DefaultMonitor() MonitorConfig {
	return MonitorConfig{
		Enabled:      true,
		SamplePeriod: 100,
		WindowSize:   100,
		ErrThreshold: 0.10,
		BadFraction:  0.10,
	}
}

// Config assembles a full memoization unit.
type Config struct {
	// CRC selects the hash algorithm (the paper evaluates 32-bit CRC).
	CRC crc.Params
	// L1 is the dedicated-SRAM first-level LUT (≤ 16 KB).
	L1 LUTConfig
	// L2, if non-nil, is the optional LUT level carved from the
	// last-level cache (256 KB or 512 KB in the evaluation).
	L2 *LUTConfig
	// Threads is the number of SMT hardware threads sharing the unit
	// (the HVR file holds MaxLUTs×Threads contexts, §3.2).
	Threads int
	// Monitor configures the quality-monitoring unit.
	Monitor MonitorConfig
	// TrackCollisions enables a debug shadow structure that detects
	// true hash collisions (distinct truncated inputs mapping to one
	// tag).  Used by tests and the CRC-width ablation.
	TrackCollisions bool
	// UpdateLatency is the update cost in cycles (Table 4: 2).
	UpdateLatency int
	// CRCBytesPerCycle is the hash unit's absorption rate.  The
	// evaluated unit is the 8-bit-parallel CRC32 unrolled four times
	// and pipelined, absorbing a 4-byte input per cycle (§6.1); set 1
	// to model the plain byte-serial unit of Table 4.
	CRCBytesPerCycle int
	// Adaptive configures the runtime truncation controller (§3.1's
	// dynamic alternative to compile-time profiling).  Requires the
	// quality monitor, whose sampled comparisons drive it.
	Adaptive AdaptiveConfig
	// Faults, if non-nil and enabled, injects storage faults into the
	// unit: bit flips in LUT reads and HVR feeds, stuck-at entries and
	// dropped updates (see internal/fault).
	Faults *fault.Plan
	// Obs, if non-nil, receives trace instants for guard trips,
	// monitor kill-switch events and delivered faults, stamped with
	// the simulated cycle at which they occurred.  Nil disables
	// collection at the cost of one nil check per event.
	Obs *obs.Sink
	// ObsPID is the trace process lane for the unit's events.
	ObsPID int
}

// MaxLUTs is the number of logical LUTs addressable by the 3-bit LUT_ID.
const MaxLUTs = 8

// DefaultConfig returns the paper's base design: 32-bit CRC, 8 KB L1 LUT
// with 4-byte data, no L2 LUT, one thread, quality monitoring on.
func DefaultConfig() Config {
	return Config{
		CRC:              crc.CRC32,
		L1:               LUTConfig{SizeBytes: 8 << 10, DataBytes: 4, HitLatency: 2},
		Threads:          1,
		Monitor:          DefaultMonitor(),
		UpdateLatency:    2,
		CRCBytesPerCycle: 4,
	}
}

// Validate checks the full configuration.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("L1 LUT: %w", err)
	}
	if c.L2 != nil {
		if err := c.L2.Validate(); err != nil {
			return fmt.Errorf("L2 LUT: %w", err)
		}
		if c.L2.DataBytes != c.L1.DataBytes {
			return fmt.Errorf("memo: L1 data width %d != L2 data width %d", c.L1.DataBytes, c.L2.DataBytes)
		}
	}
	if c.Threads < 1 {
		return fmt.Errorf("memo: %d threads", c.Threads)
	}
	if c.UpdateLatency <= 0 {
		return fmt.Errorf("memo: update latency %d", c.UpdateLatency)
	}
	if c.CRCBytesPerCycle <= 0 {
		return fmt.Errorf("memo: CRC absorption rate %d bytes/cycle", c.CRCBytesPerCycle)
	}
	if g := c.Monitor.Guard; g.Enabled {
		if !c.Monitor.Enabled {
			return fmt.Errorf("memo: the quality guard needs the quality monitor's samples")
		}
		if g.Budget <= 0 {
			return fmt.Errorf("memo: quality-guard budget %v must be positive", g.Budget)
		}
		if g.Window < 0 || g.MaxDisables < 0 {
			return fmt.Errorf("memo: negative quality-guard window or disable limit")
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}
