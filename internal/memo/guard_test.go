package memo

import (
	"math"
	"testing"
)

// guardCfg builds a unit config with aggressive guard settings: every
// hit sampled, a tiny window, and a short cooldown, so tests can walk
// the state machine in a handful of operations.  The global kill switch
// is pushed out of the way with a huge window.
func guardCfg(budget float64) Config {
	cfg := DefaultConfig()
	cfg.Monitor.Enabled = true
	cfg.Monitor.SamplePeriod = 1
	cfg.Monitor.WindowSize = 1 << 20
	cfg.Monitor.BadFraction = 1.0
	cfg.Monitor.Guard = DefaultGuard(budget)
	cfg.Monitor.Guard.Window = 4
	cfg.Monitor.Guard.CooldownLookups = 8
	return cfg
}

// pump performs one lookup round on key `key`: a (possibly sampled)
// lookup followed, on reported miss, by an update with `computed`.
// It returns whether the lookup was a real hit.
func pump(u *Unit, key uint32, computed float32) bool {
	u.feedT(0, 0, uint64(key), 4, 0, 0)
	r := u.lookupT(0, 0, 0)
	if !r.Hit {
		u.updateT(0, 0, uint64(math.Float32bits(computed)), 0)
	}
	return r.Hit
}

func TestGuardTripsDisablesAndReenables(t *testing.T) {
	u := mustNewT(guardCfg(0.05))
	u.setOutputKindT(0, OutF32)

	// Seed the entry, then keep "recomputing" values ~10% away from the
	// memoized one: every sampled comparison reports a relative error
	// well over the 5% budget.
	pump(u, 7, 2.0)
	vals := []float32{2.2, 2.0}
	for i := 0; i < 8; i++ {
		pump(u, 7, vals[i%2])
		if u.MonitorStats().GuardDisables > 0 {
			break
		}
	}
	ms := u.MonitorStats()
	if ms.GuardDisables != 1 {
		t.Fatalf("GuardDisables = %d, want 1", ms.GuardDisables)
	}
	if !ms.GuardDisabled[0] {
		t.Fatal("LUT 0 not flagged disabled")
	}
	if ms.GuardEstimate[0] <= 0.05 {
		t.Errorf("estimate %.4f not over budget", ms.GuardEstimate[0])
	}

	// While disabled every lookup bypasses: reported as a miss, the
	// matching update consumed without refilling the LUT.
	for i := 0; i < 7; i++ {
		if pump(u, 7, 2.0) {
			t.Fatalf("lookup %d hit while the guard held the LUT disabled", i)
		}
	}
	ms = u.MonitorStats()
	if ms.GuardBypassed == 0 {
		t.Error("no lookups counted as bypassed")
	}
	if ms.GuardReenables != 0 {
		t.Fatalf("re-enabled during cooldown (%d reenables)", ms.GuardReenables)
	}

	// The cooldown (8 lookups) expires: the next lookup re-arms the LUT
	// and takes the normal path again (a genuine miss — the disable
	// flushed the corrupt entries — then refill and hit).
	pump(u, 7, 2.0)
	ms = u.MonitorStats()
	if ms.GuardReenables != 1 {
		t.Fatalf("GuardReenables = %d, want 1", ms.GuardReenables)
	}
	if ms.GuardDisabled[0] {
		t.Error("LUT 0 still flagged disabled after cooldown")
	}
}

func TestGuardEarlyTripOnEgregiousSample(t *testing.T) {
	// A single totally-wrong sample (clamped relative error 1.0) already
	// exceeds budget*window = 0.2: the guard must not wait out the
	// remaining window while garbage flows.
	u := mustNewT(guardCfg(0.05))
	u.setOutputKindT(0, OutF32)
	pump(u, 7, 2.0)
	pump(u, 7, 2000.0)
	ms := u.MonitorStats()
	if ms.GuardDisables != 1 {
		t.Fatalf("GuardDisables = %d after one egregious sample, want 1", ms.GuardDisables)
	}
}

func TestGuardPermanentAfterMaxDisables(t *testing.T) {
	cfg := guardCfg(0.05)
	cfg.Monitor.Guard.MaxDisables = 1
	u := mustNewT(cfg)
	u.setOutputKindT(0, OutF32)
	pump(u, 7, 2.0)
	pump(u, 7, 2000.0) // early trip; MaxDisables = 1 makes it permanent
	ms := u.MonitorStats()
	if ms.GuardPermanent != 1 {
		t.Fatalf("GuardPermanent = %d, want 1", ms.GuardPermanent)
	}
	// Far past the cooldown, the LUT must stay bypassed.
	for i := 0; i < 32; i++ {
		if pump(u, 7, 2.0) {
			t.Fatalf("permanently disabled LUT hit on lookup %d", i)
		}
	}
	if got := u.MonitorStats().GuardReenables; got != 0 {
		t.Errorf("GuardReenables = %d, want 0", got)
	}
}

func TestGuardHealthyLUTUnaffected(t *testing.T) {
	// Exact recomputations never trip the guard; hits keep flowing.
	// Period 2 so unsampled hits exist at all (period 1 turns every hit
	// into a sampled miss).
	cfg := guardCfg(0.05)
	cfg.Monitor.SamplePeriod = 2
	u := mustNewT(cfg)
	u.setOutputKindT(0, OutF32)
	pump(u, 7, 2.0)
	hits := 0
	for i := 0; i < 20; i++ {
		if pump(u, 7, 2.0) {
			hits++
		}
	}
	ms := u.MonitorStats()
	if ms.GuardDisables != 0 {
		t.Fatalf("healthy LUT tripped the guard %d times", ms.GuardDisables)
	}
	if hits == 0 {
		t.Error("no hits on a healthy LUT")
	}
}

func TestGuardRequiresMonitor(t *testing.T) {
	cfg := noMonitorCfg()
	cfg.Monitor.Guard = DefaultGuard(0.1)
	if err := cfg.Validate(); err == nil {
		t.Error("guard without monitor accepted")
	}
	bad := DefaultConfig()
	bad.Monitor.Guard = DefaultGuard(0) // no budget
	if err := bad.Validate(); err == nil {
		t.Error("guard without budget accepted")
	}
}
