package memo

import "axmemo/internal/obs"

// lutNames pre-renders the 3-bit LUT id labels so hot callers never
// format integers.
var lutNames = [MaxLUTs]string{"0", "1", "2", "3", "4", "5", "6", "7"}

func lutName(lut uint8) string {
	if int(lut) < len(lutNames) {
		return lutNames[lut]
	}
	return "?"
}

// Publish batch-publishes one run's memoization counters into the
// registry, labeled by run (and logical LUT where split).  Counters are
// additive so a shared sweep registry stays deterministic regardless of
// publication order; a nil registry is a no-op.
func (s Stats) Publish(reg *obs.Registry, run string) {
	if reg == nil {
		return
	}
	ev := reg.NewCounterVec("memo_events_total",
		obs.Opts{Help: "memoization-unit events: lookups, hits by level, misses, sampled hits, updates, invalidates"},
		"run", "event")
	ev.With(run, "lookup").Add(s.Lookups)
	ev.With(run, "l1_hit").Add(s.L1Hits)
	ev.With(run, "l2_hit").Add(s.L2Hits)
	ev.With(run, "miss").Add(s.Misses)
	ev.With(run, "sampled_hit").Add(s.SampledHits)
	ev.With(run, "update").Add(s.Updates)
	ev.With(run, "invalidate").Add(s.Invalidates)
	lv := reg.NewCounterVec("memo_lut_events_total",
		obs.Opts{Help: "memoization events split by logical LUT (sampled hits count as hits)"},
		"run", "lut", "event")
	for lut, c := range s.PerLUT {
		if c.Lookups == 0 && c.Updates == 0 {
			continue // never-used LUT ids would only bloat the snapshot
		}
		name := lutName(uint8(lut))
		lv.With(run, name, "lookup").Add(c.Lookups)
		lv.With(run, name, "hit").Add(c.Hits)
		lv.With(run, name, "miss").Add(c.Misses)
		lv.With(run, name, "update").Add(c.Updates)
	}
	reg.NewGaugeVec("memo_hit_rate",
		obs.Opts{Help: "combined LUT hit rate (sampled hits count as hits)"}, "run").With(run).Set(s.HitRate())
	if s.HVRContexts > 0 {
		reg.NewGaugeVec("memo_hvr_occupancy",
			obs.Opts{Help: "fraction of provisioned {LUT, TID} HVR contexts that absorbed input"},
			"run").With(run).Set(float64(s.HVRContextsUsed) / float64(s.HVRContexts))
	}
}

// Publish batch-publishes one run's quality-monitor and guard counters,
// labeled by run.  A nil registry is a no-op.
func (s MonitorStats) Publish(reg *obs.Registry, run string) {
	if reg == nil {
		return
	}
	gv := reg.NewCounterVec("memo_guard_events_total",
		obs.Opts{Help: "per-LUT quality-guard transitions and bypassed lookups"}, "run", "event")
	gv.With(run, "disable").Add(s.GuardDisables)
	gv.With(run, "reenable").Add(s.GuardReenables)
	gv.With(run, "bypassed_lookup").Add(s.GuardBypassed)
	reg.NewCounterVec("memo_monitor_samples_total",
		obs.Opts{Help: "quality-monitor sampled comparisons"}, "run").With(run).Add(s.Samples)
	killed := 0.0
	if s.Disabled {
		killed = 1
	}
	reg.NewGaugeVec("memo_monitor_killed",
		obs.Opts{Help: "1 when the global quality kill switch tripped"}, "run").With(run).Set(killed)
	if s.Samples > 0 {
		reg.NewGaugeVec("memo_monitor_mean_error",
			obs.Opts{Help: "mean sampled relative error"}, "run").With(run).Set(s.MeanError)
	}
}
