package memo

import (
	"math"
	"testing"
)

// AdaptiveStats reports the runtime truncation controller's activity
// (zero-valued when disabled).
func (u *Unit) AdaptiveStats() AdaptiveStats {
	if u.adapt == nil {
		return AdaptiveStats{}
	}
	return u.adapt.stats
}

func adaptiveCfg() Config {
	cfg := DefaultConfig()
	cfg.Monitor = MonitorConfig{Enabled: true, SamplePeriod: 4, WindowSize: 8,
		ErrThreshold: 0.10, BadFraction: 0.9 /* keep the disable rule out of the way */}
	cfg.Adaptive = AdaptiveConfig{Enabled: true, MaxExtraBits: 12, MinExtraBits: 0,
		LowWater: 0.001, HighWater: 0.02}
	return cfg
}

func f32bits(v float32) uint64 { return uint64(math.Float32bits(v)) }

// driveWindows produces sampled comparisons whose relative error is
// errLevel, enough to complete `windows` monitor windows.
func driveWindows(u *Unit, errLevel float32, windows int) {
	base := float32(100)
	u.feedT(0, 0, f32bits(base), 4, 0, 0)
	u.lookupT(0, 0, 0)
	u.updateT(0, 0, f32bits(base), 0)
	needed := windows * 8 * 4 * 2 // windows × windowSize × samplePeriod, generous
	for i := 0; i < needed; i++ {
		u.feedT(0, 0, f32bits(base), 4, 0, 0)
		r := u.lookupT(0, 0, 0)
		if r.Sampled {
			// The freshly computed value alternates so that every
			// sampled comparison observes ≈ errLevel relative
			// error regardless of what the previous update wrote.
			v := base * (1 + errLevel*float32(1+i%3))
			u.updateT(0, 0, f32bits(v), 0)
		} else if !r.Hit {
			u.updateT(0, 0, f32bits(base), 0)
		}
	}
}

func TestAdaptiveRaisesOnLowError(t *testing.T) {
	u := mustNewT(adaptiveCfg())
	u.setOutputKindT(0, OutF32)
	driveWindows(u, 0, 4) // zero observed error
	st := u.AdaptiveStats()
	if st.Raises == 0 || st.Current <= 0 {
		t.Errorf("controller never raised truncation: %+v", st)
	}
}

func TestAdaptiveLowersOnHighError(t *testing.T) {
	cfg := adaptiveCfg()
	cfg.Adaptive.MinExtraBits = -4
	u := mustNewT(cfg)
	u.setOutputKindT(0, OutF32)
	driveWindows(u, 0.10, 3) // 10% sampled error, above the 2% high water
	st := u.AdaptiveStats()
	if st.Lowers == 0 {
		t.Errorf("controller never lowered truncation: %+v", st)
	}
	if st.Current >= 0 {
		t.Errorf("adjustment did not go negative: %+v", st)
	}
}

func TestAdaptiveAdjustAffectsHashing(t *testing.T) {
	// With a positive adjustment, two values differing in low mantissa
	// bits must collide even though the instruction requests zero
	// truncation.
	u := mustNewT(adaptiveCfg())
	u.setOutputKindT(0, OutF32)
	driveWindows(u, 0, 6) // push the adjustment up
	if u.AdaptiveStats().Current < 4 {
		t.Skip("controller did not accumulate enough adjustment")
	}
	a := f32bits(1.2345)
	b := a ^ 0x7
	u.feedT(1, 0, a, 4, 0, 0)
	u.lookupT(1, 0, 0)
	u.updateT(1, 0, 42, 0)
	u.feedT(1, 0, b, 4, 0, 0)
	// The monitor may convert this hit into a sampled miss; both count
	// as the entry being found.
	if r := u.lookupT(1, 0, 0); !r.Hit && !r.Sampled {
		t.Error("runtime-adjusted truncation did not merge similar inputs")
	}
}

func TestAdaptiveRequiresMonitor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Monitor.Enabled = false
	cfg.Adaptive = DefaultAdaptive()
	if _, err := New(cfg); err == nil {
		t.Error("adaptive without monitor accepted")
	}
}

func TestAdaptiveClamping(t *testing.T) {
	a := &adaptive{cfg: AdaptiveConfig{MaxExtraBits: 2, MinExtraBits: 0, LowWater: 0.1, HighWater: 0.5}}
	for i := 0; i < 10; i++ {
		a.onWindow(0) // always raise
	}
	if a.adj != 2 {
		t.Errorf("adjustment exceeded max: %d", a.adj)
	}
	for i := 0; i < 10; i++ {
		a.onWindow(1) // always lower
	}
	if a.adj != 0 {
		t.Errorf("adjustment fell below min: %d", a.adj)
	}
}

func TestAdaptiveApplyClampsToLane(t *testing.T) {
	a := &adaptive{cfg: AdaptiveConfig{MaxExtraBits: 60}}
	a.adj = 60
	if got := a.apply(10, 32); got != 32 {
		t.Errorf("apply = %d, want clamped 32", got)
	}
	a.adj = -20
	if got := a.apply(10, 32); got != 0 {
		t.Errorf("apply = %d, want clamped 0", got)
	}
	var nilA *adaptive
	if got := nilA.apply(7, 32); got != 7 {
		t.Errorf("nil controller changed truncation: %d", got)
	}
}

func TestAdaptiveBackoffFlushesLUT(t *testing.T) {
	cfg := adaptiveCfg()
	cfg.Adaptive.MinExtraBits = -8
	u := mustNewT(cfg)
	u.setOutputKindT(0, OutF32)
	// Seed an unrelated entry in LUT 2, then force a back-off.
	u.feedT(2, 0, f32bits(7), 4, 0, 0)
	u.lookupT(2, 0, 0)
	u.updateT(2, 0, 9, 0)
	driveWindows(u, 0.10, 3)
	if u.AdaptiveStats().Lowers == 0 {
		t.Skip("no back-off happened")
	}
	u.feedT(2, 0, f32bits(7), 4, 0, 0)
	if r := u.lookupT(2, 0, 0); r.Hit {
		t.Error("back-off did not flush stale LUT entries")
	}
}
