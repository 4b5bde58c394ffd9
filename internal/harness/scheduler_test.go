package harness

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"axmemo/internal/obs"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

// TestSweepCellsDedup checks that figures sharing a sweep share cells:
// Fig7a/7b/8/9/10a all read the same baseline + StandardConfigs grid, so
// requesting all five must enumerate it exactly once.
func TestSweepCellsDedup(t *testing.T) {
	one, err := SweepCells("Fig7a")
	if err != nil {
		t.Fatal(err)
	}
	want := len(workloads.All()) * (1 + len(StandardConfigs()))
	if len(one) != want {
		t.Fatalf("Fig7a cells = %d, want %d", len(one), want)
	}
	five, err := SweepCells("Fig7a", "Fig7b", "Fig8", "Fig9", "Fig10a")
	if err != nil {
		t.Fatal(err)
	}
	if len(five) != want {
		t.Fatalf("five-figure sweep = %d cells, want %d (fully deduplicated)", len(five), want)
	}
	// ATM shares its BestConfig column and baselines with the standard
	// grid: only the ATM-mode cells are new.
	withATM, err := SweepCells("Fig7a", "ATM")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(withATM), want+len(workloads.All()); got != want {
		t.Fatalf("Fig7a+ATM sweep = %d cells, want %d", got, want)
	}
	seen := make(map[cellKey]bool)
	for _, c := range withATM {
		if seen[c.key()] {
			t.Fatalf("duplicate cell %+v", c.key())
		}
		seen[c.key()] = true
	}
}

// TestSweepCellsDistinct checks that a sweep simulates each distinct
// machine once: keyed by its store key with the name cleared, no two
// enumerated cells may collide.
func TestSweepCellsDistinct(t *testing.T) {
	cells, err := SweepCells()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[store.Key]SweepCell)
	for _, c := range cells {
		cfg := c.Config
		if c.Baseline {
			cfg = Baseline()
		}
		cfg.Name = ""
		cfg.Scale = 1
		k := CellStoreKey(c.Workload, cfg)
		if prev, ok := seen[k]; ok {
			t.Errorf("%s: %q and %q simulate the same machine",
				c.Workload, prev.ConfigName(), c.ConfigName())
		}
		seen[k] = c
	}
}

// TestSweepCellsCoverEveryFigure checks the enumeration knows every
// scheduler figure and rejects unknown ones.
func TestSweepCellsCoverEveryFigure(t *testing.T) {
	for _, id := range FigureIDs() {
		cells, err := SweepCells(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(cells) == 0 {
			t.Fatalf("%s: no cells enumerated", id)
		}
	}
	if _, err := SweepCells("Fig99"); err == nil {
		t.Fatal("unknown figure did not error")
	}
	if _, err := (&Suite{}).Figure("Fig99"); err == nil {
		t.Fatal("unknown figure did not error in Figure")
	}
}

// TestCellOnceSemantics races many goroutines at one cell and checks
// that the simulation ran exactly once: every goroutine reads the same
// result, the store holds one cell, and nothing stays in flight.
func TestCellOnceSemantics(t *testing.T) {
	s := NewSuite(1)
	s.Obs = obs.NewSink()
	cfg := BestConfig()
	const n = 8
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := workloads.ByName("sobel")
			if err != nil {
				t.Error(err)
				return
			}
			r, err := s.Under(w, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("goroutine %d read a different result", i)
		}
	}
	if got := execCount(s); got != 1 {
		t.Fatalf("cell executed %d times, want 1", got)
	}
	if got := s.Store.Stats().Entries; got != 1 {
		t.Fatalf("store holds %d cells, want 1", got)
	}
	if got := inflight(s); got != 0 {
		t.Fatalf("%d cells still in flight", got)
	}
}

// inflight counts the suite's cells in flight.
func inflight(s *Suite) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// TestInflightHoldsOnlyRunningCells: the suite keeps a cell only while
// its run is in flight.  After a sweep every finished cell is in the
// store and none in the suite; a failed run leaves nothing behind, so
// asking again runs it again.
func TestInflightHoldsOnlyRunningCells(t *testing.T) {
	s := NewSuite(1)
	s.Parallel = 2
	s.Obs = obs.NewSink()
	if _, err := s.GenerateAll("ABL-RATE"); err != nil {
		t.Fatal(err)
	}
	cells, err := SweepCells("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	if got := inflight(s); got != 0 {
		t.Fatalf("%d cells still in flight after the sweep", got)
	}
	if got := s.Store.Stats().Entries; got != len(cells) {
		t.Fatalf("store holds %d cells after the sweep, want %d", got, len(cells))
	}

	halted := BestConfig()
	halted.MaxCycles = 1000
	failing := SweepCell{Workload: "sobel", Config: halted}
	for run := 1; run <= 2; run++ {
		if _, _, err := s.RunCell(failing); err == nil {
			t.Fatal("a 1000-cycle budget did not halt the run")
		}
		if got := inflight(s); got != 0 {
			t.Fatalf("failed run %d left %d cells in flight", run, got)
		}
		if got := s.Store.Stats().Entries; got != len(cells) {
			t.Fatalf("failed run %d was kept: store holds %d cells, want %d", run, got, len(cells))
		}
		if got := execCount(s); got != uint64(len(cells)+run) {
			t.Fatalf("after failed run %d: %d executions, want %d", run, got, len(cells)+run)
		}
	}
}

// TestParallelSweepMatchesSerial is the scheduler's determinism
// contract: a worker-pool sweep must render byte-identical figures to a
// serial one.  Every Run carries all of its state (locally seeded RNGs,
// fault plans, memo units), so execution order cannot leak into results.
func TestParallelSweepMatchesSerial(t *testing.T) {
	figs := []string{"Fig7a", "Fig7b", "Fig8", "Fig10b", "ATM"}

	render := func(s *Suite) string {
		var sb strings.Builder
		out, err := s.GenerateAll(figs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range out {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	serial := NewSuite(1)
	serial.Parallel = 1
	want := render(serial)

	par := NewSuite(1)
	par.Parallel = 4
	got := render(par)

	if got != want {
		t.Fatalf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if a, b := serial.Store.Stats().Entries, par.Store.Stats().Entries; a != b {
		t.Fatalf("stored cells differ: serial %d, parallel %d", a, b)
	}
}

// TestGenerateMatchesDirectFigure checks that the prewarmed path renders
// the same bytes as calling the figure generator cold.
func TestGenerateMatchesDirectFigure(t *testing.T) {
	cold := NewSuite(1)
	direct, err := cold.Figure("Fig10b")
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSuite(1)
	warm.Parallel = 2
	gen, err := warm.Generate("Fig10b")
	if err != nil {
		t.Fatal(err)
	}
	if gen.String() != direct.String() {
		t.Fatalf("Generate(Fig10b) differs from direct Fig10b:\n%s\nvs\n%s", gen.String(), direct.String())
	}
}
