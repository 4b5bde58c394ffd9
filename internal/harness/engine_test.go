package harness

import (
	"bytes"
	"reflect"
	"testing"

	"axmemo/internal/cpu"
	"axmemo/internal/obs"
	"axmemo/internal/workloads"
)

// These tests extend the cpu package's differential contract to the
// whole experiment pipeline: a harness run — compiler transformation,
// memo unit, quality scoring, energy model — must produce an identical
// Result and an identical deterministic observability snapshot on the
// bytecode engine and its tree oracle.

// TestRunEngineParity runs full workloads under representative
// configurations on both engines and requires Result equality field for
// field, plus byte-identical deterministic metrics snapshots.
func TestRunEngineParity(t *testing.T) {
	configs := []Config{
		Baseline(),
		BestConfig(),
		{Name: "Software LUT", Mode: ModeSoftLUT, Scale: 1},
		{Name: "ATM", Mode: ModeATM, Scale: 1},
	}
	for _, wname := range []string{"sobel", "jmeint"} {
		w, err := workloads.ByName(wname)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range configs {
			run := func(engine cpu.Engine) (*Result, []byte) {
				cfg := base
				cfg.Scale = 1
				cfg.engine = engine
				sink := obs.NewSink()
				cfg.Obs = sink
				cfg.ObsPID = 1
				res, err := Run(w, cfg)
				if err != nil {
					t.Fatalf("%s/%s engine=%s: %v", wname, cfg.Name, engine, err)
				}
				return res, sink.Reg().SnapshotJSON(obs.Deterministic)
			}
			bcRes, bcSnap := run(cpu.EngineBytecode)
			trRes, trSnap := run(cpu.EngineTree)
			if !reflect.DeepEqual(bcRes, trRes) {
				t.Errorf("%s/%s: result divergence:\n  bytecode: %+v\n  tree:     %+v",
					wname, base.Name, bcRes, trRes)
			}
			if !bytes.Equal(bcSnap, trSnap) {
				t.Errorf("%s/%s: deterministic obs snapshot differs between engines", wname, base.Name)
			}
		}
	}
}

// TestSuiteEngineFigureParity renders the figure suite's standard sweep
// on the tree engine and compares it byte for byte against the golden
// files — which the default (bytecode) suite is also held to in
// golden_test.go.  Together the two pin the acceptance claim: the full
// figure output is byte-identical between engines.
func TestSuiteEngineFigureParity(t *testing.T) {
	s := NewSuite(1)
	s.engine = cpu.EngineTree
	for _, tc := range []struct {
		file string
		id   string
	}{
		{"fig7a.txt", "Fig7a"},
		{"fig9.txt", "Fig9"},
	} {
		fig, err := s.Figure(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		golden(t, tc.file, []byte(fig.String()))
	}
}
