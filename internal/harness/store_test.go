package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"axmemo/internal/obs"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

// execCount reads the suite's executed-simulation counter.
func execCount(s *Suite) uint64 {
	return s.Obs.Reg().NewCounter("harness_cell_exec_total", obs.Opts{}).Value()
}

func storeSuite(t *testing.T, dir string) *Suite {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(1)
	s.Parallel = 2
	s.Obs = obs.NewSink()
	s.Store = st
	st.Attach(s.Obs)
	return s
}

func TestCellStoreKeyStability(t *testing.T) {
	a := CellStoreKey("sobel", BestConfig())
	if a != CellStoreKey("sobel", BestConfig()) {
		t.Fatal("key not deterministic")
	}
	if a == CellStoreKey("srad", BestConfig()) {
		t.Fatal("workload not in key")
	}
	if a == CellStoreKey("sobel", HW("L1 (4KB)", 4, 0)) {
		t.Fatal("config not in key")
	}
	// Observability settings must NOT change the key: instrumented and
	// bare runs share cells.
	cfg := BestConfig()
	cfg.Obs = obs.NewSink()
	cfg.ObsPID = 7
	if a != CellStoreKey("sobel", cfg) {
		t.Fatal("obs fields leaked into the key")
	}
	scaled := BestConfig()
	scaled.Scale = 2
	if a == CellStoreKey("sobel", scaled) {
		t.Fatal("scale not in key")
	}
}

// TestSuiteStoreReuse is the cross-process cache contract: a fresh
// suite pointed at a store directory populated by an earlier suite must
// render the same bytes with zero simulations executed.
func TestSuiteStoreReuse(t *testing.T) {
	dir := t.TempDir()

	cold := storeSuite(t, dir)
	fig1, err := cold.Generate("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := SweepCells("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	if got := execCount(cold); got != uint64(len(cells)) {
		t.Fatalf("cold sweep executed %d cells, want %d", got, len(cells))
	}
	if st := cold.Store.Stats(); st.Misses != uint64(len(cells)) || st.Entries != len(cells) {
		t.Fatalf("cold store stats = %+v, want %d misses/entries", st, len(cells))
	}
	if err := cold.Store.Close(); err != nil {
		t.Fatal(err)
	}

	warm := storeSuite(t, dir)
	fig2, err := warm.Generate("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	if fig1.String() != fig2.String() {
		t.Fatalf("store-served figure differs:\n--- cold ---\n%s--- warm ---\n%s", fig1, fig2)
	}
	if got := execCount(warm); got != 0 {
		t.Fatalf("warm sweep executed %d cells, want 0", got)
	}
	if st := warm.Store.Stats(); st.Hits != uint64(len(cells)) {
		t.Fatalf("warm store stats = %+v, want %d hits", st, len(cells))
	}
}

// TestSuiteStoreCorruptionRecovers: a truncated blob must read as a
// miss, recompute (one execution), repair the entry on disk, and still
// produce the identical result.
func TestSuiteStoreCorruptionRecovers(t *testing.T) {
	dir := t.TempDir()
	cell := SweepCell{Workload: "sobel", Config: BestConfig()}

	cold := storeSuite(t, dir)
	want, executed, err := cold.RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if !executed {
		t.Fatal("cold cell not executed")
	}
	if err := cold.Store.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate the blob mid-payload, as a crash during a non-atomic
	// write would have.
	cfg := BestConfig()
	cfg.Scale = 1
	blob := filepath.Join(dir, CellStoreKey("sobel", cfg).String()+".json")
	data, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blob, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	repair := storeSuite(t, dir)
	got, executed, err := repair.RunCell(cell)
	if err != nil {
		t.Fatalf("corrupt store entry surfaced as an error: %v", err)
	}
	if !executed {
		t.Fatal("corrupt entry served without recompute")
	}
	if got.Cycles != want.Cycles || got.Quality != want.Quality || got.EnergyPJ != want.EnergyPJ {
		t.Fatalf("recomputed result differs: %+v vs %+v", got, want)
	}
	if st := repair.Store.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("store stats after corruption = %+v", st)
	}

	// The recompute repaired the blob: a third suite hits cleanly.
	third := storeSuite(t, dir)
	res, executed, err := third.RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if executed {
		t.Fatal("repaired entry not served from store")
	}
	if res.Cycles != want.Cycles {
		t.Fatalf("repaired result differs: %d cycles, want %d", res.Cycles, want.Cycles)
	}
}

// TestStoreResultRoundTripExact checks the JSON round trip preserves
// every field the figures format, including float64s bit-for-bit.
func TestStoreResultRoundTripExact(t *testing.T) {
	dir := t.TempDir()
	w, err := workloads.ByName("sobel")
	if err != nil {
		t.Fatal(err)
	}
	cfg := BestConfig()

	cold := storeSuite(t, dir)
	want, err := cold.Under(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := storeSuite(t, dir)
	got, err := warm.Under(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Quality != want.Quality || got.MeanError != want.MeanError ||
		got.HitRate != want.HitRate || got.EnergyPJ != want.EnergyPJ ||
		got.Cycles != want.Cycles || got.Insns != want.Insns {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, want)
	}
	if len(want.ErrorCDF) != len(errorCDFPoints) || len(got.ErrorCDF) != len(want.ErrorCDF) {
		t.Fatalf("ErrorCDF length %d, want %d", len(got.ErrorCDF), len(want.ErrorCDF))
	}
	for i := range got.ErrorCDF {
		if got.ErrorCDF[i] != want.ErrorCDF[i] {
			t.Fatalf("ErrorCDF[%d] = %v, want %v", i, got.ErrorCDF[i], want.ErrorCDF[i])
		}
	}
	if got.Energy != want.Energy || got.Monitor != want.Monitor {
		t.Fatal("energy breakdown or monitor stats drifted through the store")
	}
}

// TestHitIsACopy: a hit on a finished cell answers with the store's
// payload bytes, equal to the cell's fresh answer; it allocates no more
// than deriving the cell's key and moves no store counter.
func TestHitIsACopy(t *testing.T) {
	s := NewSuite(1)
	c := SweepCell{Workload: "sobel", Config: BestConfig()}
	if _, ok := s.Hit(c); ok {
		t.Fatal("hit before the cell ran")
	}
	fresh, err := s.Serve(c)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Fatal("first answer claimed cached")
	}
	before := s.Store.Stats()
	a, ok := s.Hit(c)
	if !ok || !a.Cached || a.Key != fresh.Key || !bytes.Equal(a.JSON, fresh.JSON) {
		t.Fatalf("hit = %+v, ok %v; want the fresh answer's key and bytes, cached", a, ok)
	}
	if after := s.Store.Stats(); after != before {
		t.Fatalf("a hit moved the store's counters: %+v -> %+v", before, after)
	}
	keyAllocs := testing.AllocsPerRun(100, func() { s.CellKey(c) })
	hitAllocs := testing.AllocsPerRun(100, func() { s.Hit(c) })
	if hitAllocs > keyAllocs {
		t.Fatalf("Hit allocates %.0f times, CellKey %.0f: a hit must be a lookup and a copy", hitAllocs, keyAllocs)
	}
}

// TestServeAnswersStoredBytes: a cell read back from a directory store
// is answered with the blob's payload, byte-equal to the fresh answer of
// the process that wrote it, and from then on hits from memory.
func TestServeAnswersStoredBytes(t *testing.T) {
	dir := t.TempDir()
	c := SweepCell{Workload: "sobel", Config: BestConfig()}
	fresh, err := storeSuite(t, dir).Serve(c)
	if err != nil {
		t.Fatal(err)
	}
	warm := storeSuite(t, dir)
	if _, ok := warm.Hit(c); ok {
		t.Fatal("a blob not read since Open was served without a lookup")
	}
	a, err := warm.Serve(c)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Cached || !bytes.Equal(a.JSON, fresh.JSON) {
		t.Fatalf("stored answer cached=%v, bytes equal %v; want a cached copy of the fresh answer",
			a.Cached, bytes.Equal(a.JSON, fresh.JSON))
	}
	if h, ok := warm.Hit(c); !ok || !bytes.Equal(h.JSON, fresh.JSON) {
		t.Fatal("a cell read from disk is not held in memory")
	}
	if got := execCount(warm); got != 0 {
		t.Fatalf("warm suite executed %d cells", got)
	}
}
