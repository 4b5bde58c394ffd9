package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"axmemo/internal/obs"
	"axmemo/internal/workloads"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/harness -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// golden compares got against testdata/golden/name byte-for-byte, or
// rewrites the file under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden file (regenerate with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestGoldenTable1(t *testing.T) {
	fig, err := Table1(0)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table1.txt", []byte(fig.String()))
}

// TestGoldenFigures pins every sweep figure byte for byte, each against
// testdata/golden/<lower-case ID>.txt, rendered from a single
// GenerateAll over all of FigureIDs.
func TestGoldenFigures(t *testing.T) {
	ids := FigureIDs()
	figs, err := NewSuite(1).GenerateAll(ids...)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		t.Run(id, func(t *testing.T) {
			golden(t, strings.ToLower(id)+".txt", []byte(figs[i].String()))
		})
	}
}

// TestGoldenMetricsSnapshot pins the deterministic metrics snapshot of
// one instrumented simulation (sobel under the best configuration):
// any change to metric names, labels, bucket layouts or the snapshot
// format shows up as a readable diff here.
func TestGoldenMetricsSnapshot(t *testing.T) {
	w, err := workloads.ByName("sobel")
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	cfg := BestConfig()
	cfg.Scale = 1
	cfg.Obs = sink
	cfg.ObsPID = 1
	if _, err := Run(w, cfg); err != nil {
		t.Fatal(err)
	}
	golden(t, "metrics_sobel_best.json", sink.Reg().SnapshotJSON(obs.Deterministic))
}

// TestParallelSweepObsMatchesSerial extends the scheduler's
// byte-identical invariant to the observability artifacts: a parallel
// sweep must publish the same deterministic metrics snapshot, Chrome
// trace and JSONL event log as a serial one.  Under -race this also
// exercises the registry's and tracer's concurrent paths.
func TestParallelSweepObsMatchesSerial(t *testing.T) {
	figs := []string{"ABL-RATE", "ENERGY"}
	render := func(parallel int) (metrics, trace, events []byte) {
		s := NewSuite(1)
		s.Parallel = parallel
		s.Obs = obs.NewSink()
		if err := s.Prewarm(0, figs...); err != nil {
			t.Fatal(err)
		}
		return s.Obs.Reg().SnapshotJSON(obs.Deterministic),
			s.Obs.Tracer().ChromeTraceJSON(),
			s.Obs.Tracer().JSONL()
	}
	serialM, serialT, serialE := render(1)
	for _, workers := range []int{4, 7} {
		m, tr, e := render(workers)
		if !bytes.Equal(serialM, m) {
			t.Errorf("workers=%d: metrics snapshot differs from serial", workers)
		}
		if !bytes.Equal(serialT, tr) {
			t.Errorf("workers=%d: Chrome trace differs from serial", workers)
		}
		if !bytes.Equal(serialE, e) {
			t.Errorf("workers=%d: JSONL event log differs from serial", workers)
		}
	}
	if len(serialT) == 0 || !bytes.Contains(serialT, []byte(`"process_name"`)) {
		t.Error("sweep trace missing process metadata")
	}
	if !bytes.Contains(serialM, []byte(fmt.Sprintf("%q", "harness_sweep_cells_total"))) {
		t.Error("metrics snapshot missing scheduler cell counter")
	}
}
