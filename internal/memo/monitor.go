package memo

import "math"

// monitor is the quality-monitoring unit of §6: every SamplePeriod-th LUT
// hit is converted into a miss; the program then computes the real result
// and the subsequent update lets the monitor compare the memoized output
// against the computed one.  If, within a window of WindowSize
// comparisons, more than BadFraction of the relative errors exceed
// ErrThreshold, memoization is disabled for the rest of the run.
type monitor struct {
	cfg MonitorConfig

	hitCount    uint64
	windowCount int
	windowBad   int
	windowSum   float64
	disabled    bool

	samples   uint64
	maxRelErr float64
	sumRelErr float64

	guards        [MaxLUTs]lutGuard
	guardBypassed uint64

	// onWindow, if set, receives each completed window's mean relative
	// error (the adaptive-truncation controller subscribes here).
	onWindow func(meanErr float64)
	// onGuardDisable, if set, is invoked when the quality guard trips
	// for one logical LUT at cycle now (the unit flushes that LUT's
	// entries and emits a trace instant here).
	onGuardDisable func(lut uint8, now uint64)
	// onGuardReenable, if set, is invoked when a cooldown expires and
	// the LUT is re-armed at cycle now.
	onGuardReenable func(lut uint8, now uint64)
	// onDisable, if set, is invoked when the global kill switch trips
	// at cycle now.
	onDisable func(now uint64)
}

// lutGuard is the per-LUT quality-guard state machine: active →
// (estimate over budget) → disabled → (cooldown elapsed) → active.  A
// LUT that trips MaxDisables times is disabled permanently.
type lutGuard struct {
	sum float64 // running estimate window
	n   int

	lookups    uint64 // lookups addressed to this LUT
	disabled   bool
	permanent  bool
	reenableAt uint64 // lookup count at which the cooldown expires
	disables   uint64
	reenables  uint64
	estimate   float64 // last completed window's mean relative error
}

func newMonitor(cfg MonitorConfig) *monitor {
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = 100
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 100
	}
	if cfg.Guard.Window <= 0 {
		cfg.Guard.Window = 16
	}
	if cfg.Guard.CooldownLookups == 0 {
		cfg.Guard.CooldownLookups = 4096
	}
	return &monitor{cfg: cfg}
}

// guardBypass is consulted on every lookup of one logical LUT.  It
// returns true while the guard holds the LUT disabled: the unit then
// reports a miss so the program recomputes exactly (graceful degradation
// to baseline execution).  After the cooldown the LUT is re-enabled to
// probe whether quality recovered.
func (m *monitor) guardBypass(lut uint8, now uint64) bool {
	if !m.cfg.Guard.Enabled {
		return false
	}
	g := &m.guards[lut]
	g.lookups++
	if !g.disabled {
		return false
	}
	if !g.permanent && g.lookups >= g.reenableAt {
		g.disabled = false
		g.reenables++
		g.sum, g.n = 0, 0
		if m.onGuardReenable != nil {
			m.onGuardReenable(lut, now)
		}
		return false
	}
	m.guardBypassed++
	return true
}

// observeGuard feeds one sampled comparison into the LUT's estimate and
// trips the guard when a completed window exceeds the region budget.
func (m *monitor) observeGuard(lut uint8, rel float64, now uint64) {
	if !m.cfg.Guard.Enabled {
		return
	}
	g := &m.guards[lut]
	if g.disabled {
		return
	}
	g.sum += rel
	g.n++
	budget := m.cfg.Guard.Budget
	// Early trip: once the partial window's accumulated error already
	// guarantees the window mean will exceed the budget (even if every
	// remaining sample were exact), react now — waiting out the window
	// only lets more corrupted values through.
	if g.sum <= budget*float64(m.cfg.Guard.Window) {
		if g.n < m.cfg.Guard.Window {
			return
		}
		g.estimate = g.sum / float64(g.n)
		g.sum, g.n = 0, 0
		if g.estimate <= budget {
			return
		}
	} else {
		g.estimate = g.sum / float64(g.n)
		g.sum, g.n = 0, 0
	}
	g.disabled = true
	g.disables++
	g.reenableAt = g.lookups + m.cfg.Guard.CooldownLookups
	if m.cfg.Guard.MaxDisables > 0 && g.disables >= uint64(m.cfg.Guard.MaxDisables) {
		g.permanent = true
	}
	if m.onGuardDisable != nil {
		m.onGuardDisable(lut, now)
	}
}

// shouldSample is consulted on every LUT hit; when it returns true the
// unit reports a miss to the CPU and remembers the memoized data for the
// comparison that the matching update will trigger.
func (m *monitor) shouldSample() bool {
	if !m.cfg.Enabled || m.disabled {
		return false
	}
	m.hitCount++
	return m.hitCount%uint64(m.cfg.SamplePeriod) == 0
}

// observe records one comparison between the memoized output and the
// freshly computed one, at cycle now.
func (m *monitor) observe(lut uint8, memoized, computed uint64, kind OutputKind, now uint64) {
	rel := relativeError(memoized, computed, kind)
	m.observeGuard(lut, rel, now)
	m.samples++
	m.sumRelErr += rel
	if rel > m.maxRelErr {
		m.maxRelErr = rel
	}
	m.windowCount++
	m.windowSum += rel
	if rel > m.cfg.ErrThreshold {
		m.windowBad++
	}
	if m.windowCount >= m.cfg.WindowSize {
		if float64(m.windowBad) > m.cfg.BadFraction*float64(m.windowCount) {
			m.disabled = true
			if m.onDisable != nil {
				m.onDisable(now)
			}
		}
		if m.onWindow != nil {
			m.onWindow(m.windowSum / float64(m.windowCount))
		}
		m.windowCount, m.windowBad, m.windowSum = 0, 0, 0
	}
}

// relativeError computes the maximum lane-wise relative error between two
// LUT data words interpreted per kind.
func relativeError(a, b uint64, kind OutputKind) float64 {
	switch kind {
	case OutF64:
		return relErr(math.Float64frombits(a), math.Float64frombits(b))
	case OutTwoF32:
		lo := relErr(float64(math.Float32frombits(uint32(a))), float64(math.Float32frombits(uint32(b))))
		hi := relErr(float64(math.Float32frombits(uint32(a>>32))), float64(math.Float32frombits(uint32(b>>32))))
		return math.Max(lo, hi)
	case OutI32:
		return relErr(float64(int32(uint32(a))), float64(int32(uint32(b))))
	case OutPacked:
		worst := 0.0
		for i := 0; i < 4; i++ {
			va := float64(int16(uint16(a >> (16 * uint(i)))))
			vb := float64(int16(uint16(b >> (16 * uint(i)))))
			if e := relErr(va, vb); e > worst {
				worst = e
			}
		}
		return worst
	default: // OutF32
		return relErr(float64(math.Float32frombits(uint32(a))), float64(math.Float32frombits(uint32(b))))
	}
}

func relErr(approx, exact float64) float64 {
	if math.IsNaN(approx) || math.IsNaN(exact) {
		return 1
	}
	if exact == 0 {
		if approx == 0 {
			return 0
		}
		return 1
	}
	// Clamp at 100%: beyond total corruption, magnitude carries no
	// information, and a single garbage-exponent float (bit flips in
	// the LUT) must not dominate every window statistic.
	return math.Min(math.Abs(approx-exact)/math.Abs(exact), 1)
}

// MonitorStats summarizes quality-monitor activity.
type MonitorStats struct {
	Samples   uint64
	MeanError float64
	MaxError  float64
	Disabled  bool

	// Per-LUT quality-guard activity (zero-valued when the guard is
	// off).
	GuardDisables  uint64 // guard trips across all LUTs
	GuardReenables uint64 // cooldown expirations that re-armed a LUT
	GuardBypassed  uint64 // lookups bypassed while a LUT was disabled
	GuardPermanent int    // LUTs disabled for good (MaxDisables reached)
	// GuardDisabled flags the LUTs currently held disabled.
	GuardDisabled [MaxLUTs]bool
	// GuardEstimate is each LUT's last completed-window error estimate.
	GuardEstimate [MaxLUTs]float64
}

func (m *monitor) stats() MonitorStats {
	s := MonitorStats{Samples: m.samples, MaxError: m.maxRelErr, Disabled: m.disabled,
		GuardBypassed: m.guardBypassed}
	if m.samples > 0 {
		s.MeanError = m.sumRelErr / float64(m.samples)
	}
	for i := range m.guards {
		g := &m.guards[i]
		s.GuardDisables += g.disables
		s.GuardReenables += g.reenables
		if g.permanent {
			s.GuardPermanent++
		}
		s.GuardDisabled[i] = g.disabled
		s.GuardEstimate[i] = g.estimate
	}
	return s
}
