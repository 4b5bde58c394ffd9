package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"axmemo/internal/cli"
)

// runCmd executes the command body in-process and returns the mapped
// exit code with the captured streams.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return cli.ExitCode(err), out.String(), errb.String()
}

func TestFlagHandling(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  string // substring of stdout when non-empty
		wantErr  string // substring of stderr when non-empty
	}{
		{name: "help", args: []string{"-h"}, wantCode: 0, wantErr: "-bench"},
		{name: "bad flag", args: []string{"-definitely-not-a-flag"}, wantCode: 2, wantErr: "definitely-not-a-flag"},
		{name: "bad mode", args: []string{"-mode", "bogus"}, wantCode: 2},
		{name: "unknown bench", args: []string{"-bench", "no-such-bench"}, wantCode: 1},
		{name: "bad fault rate", args: []string{"-bench", "sobel", "-fault-sweep", "abc"}, wantCode: 2},
		{name: "fault sweep needs hw", args: []string{"-bench", "sobel", "-mode", "soft", "-fault-sweep", "0"}, wantCode: 2},
		{name: "unknown figure", args: []string{"-figures", "Fig99"}, wantCode: 1},
		// No flag selects an engine: -engine is an unknown flag.
		{name: "engine flag removed", args: []string{"-engine", "tree"}, wantCode: 2, wantErr: "-engine"},
		{name: "list", args: []string{"-list"}, wantCode: 0, wantOut: "blackscholes"},
		{name: "dump", args: []string{"-bench", "sobel", "-dump"}, wantCode: 0, wantOut: "lookup"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCmd(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, errOut)
			}
			if tc.wantOut != "" && !strings.Contains(out, tc.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tc.wantOut, out)
			}
			if tc.wantErr != "" && !strings.Contains(errOut, tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, errOut)
			}
		})
	}
}

// chromeTrace is the structural subset of the Chrome trace-event format
// the tests validate.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		PID  *int   `json:"pid"`
		TID  *int   `json:"tid"`
		TS   *int64 `json:"ts"`
	} `json:"traceEvents"`
}

func readTrace(t *testing.T, path string) chromeTrace {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return tr
}

func TestSingleRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.json")
	events := filepath.Join(dir, "e.jsonl")

	code, out, errOut := runCmd(t, "-bench", "sobel", "-l2", "0",
		"-metrics-out", metrics, "-trace-out", trace, "-events-out", events)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "speedup:") {
		t.Errorf("stdout missing summary:\n%s", out)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Schema  int `json:"schema"`
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	if snap.Schema != 1 {
		t.Errorf("metrics schema = %d, want 1", snap.Schema)
	}
	found := map[string]bool{}
	for _, m := range snap.Metrics {
		found[m.Name] = true
	}
	for _, want := range []string{"cpu_cycles_total", "cpu_insns_total", "mem_cache_events_total", "memo_events_total"} {
		if !found[want] {
			t.Errorf("metrics snapshot missing family %q", want)
		}
	}

	tr := readTrace(t, trace)
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	names := map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "" || e.PID == nil || e.TID == nil || e.TS == nil {
			t.Fatalf("trace event %+v missing required fields", e)
		}
		names[e.Name] = true
	}
	if !names["run"] || !names["process_name"] {
		t.Errorf("trace missing run span or process metadata: %v", names)
	}

	lines, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(lines), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("events line %d is not valid JSON: %s", i+1, line)
		}
	}
}

// TestFiguresSerialParallelIdentical is the end-to-end form of the
// scheduler's determinism invariant: the CLI's report AND its
// observability artifacts must be byte-identical between a serial and a
// parallel sweep.
func TestFiguresSerialParallelIdentical(t *testing.T) {
	render := func(parallel string) (report, metrics, trace []byte) {
		dir := t.TempDir()
		m := filepath.Join(dir, "m.json")
		tr := filepath.Join(dir, "t.json")
		code, out, errOut := runCmd(t, "-figures", "ABL-RATE", "-parallel", parallel,
			"-metrics-out", m, "-trace-out", tr)
		if code != 0 {
			t.Fatalf("parallel=%s exit code = %d, stderr: %s", parallel, code, errOut)
		}
		mb, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(out), mb, tb
	}
	serialOut, serialM, serialT := render("1")
	parOut, parM, parT := render("4")
	if !bytes.Equal(serialOut, parOut) {
		t.Error("figure report differs between serial and parallel sweep")
	}
	if !bytes.Equal(serialM, parM) {
		t.Error("metrics snapshot differs between serial and parallel sweep")
	}
	if !bytes.Equal(serialT, parT) {
		t.Error("trace differs between serial and parallel sweep")
	}
}

// TestFiguresStoreReuse is the CLI face of the result store: a second
// -figures invocation against the same -store-dir must render the
// identical bytes without executing a single simulation (no
// harness_cell_exec_total family in its metrics snapshot), served
// entirely as store hits.
func TestFiguresStoreReuse(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	m1 := filepath.Join(dir, "m1.json")
	m2 := filepath.Join(dir, "m2.json")

	code, out1, errOut := runCmd(t, "-figures", "ABL-RATE", "-store-dir", storeDir, "-metrics-out", m1)
	if code != 0 {
		t.Fatalf("cold run exit %d: %s", code, errOut)
	}
	code, out2, errOut := runCmd(t, "-figures", "ABL-RATE", "-store-dir", storeDir, "-metrics-out", m2)
	if code != 0 {
		t.Fatalf("warm run exit %d: %s", code, errOut)
	}
	if out1 != out2 {
		t.Fatalf("store-served figures differ:\n--- cold ---\n%s--- warm ---\n%s", out1, out2)
	}

	cold, err := os.ReadFile(m1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(cold), "harness_cell_exec_total") ||
		!strings.Contains(string(cold), "store_misses_total") {
		t.Fatalf("cold metrics missing exec/miss families:\n%s", cold)
	}
	if strings.Contains(string(warm), "harness_cell_exec_total") {
		t.Fatalf("warm run executed simulations:\n%s", warm)
	}
	if !strings.Contains(string(warm), "store_hits_total") {
		t.Fatalf("warm metrics missing store hits:\n%s", warm)
	}
}

// TestSingleRunStoreReuse: the one-shot path shares cells through the
// same store, so a repeated invocation prints identical measurements.
func TestSingleRunStoreReuse(t *testing.T) {
	storeDir := t.TempDir()
	code, out1, errOut := runCmd(t, "-bench", "sobel", "-store-dir", storeDir)
	if code != 0 {
		t.Fatalf("cold run exit %d: %s", code, errOut)
	}
	code, out2, errOut := runCmd(t, "-bench", "sobel", "-store-dir", storeDir)
	if code != 0 {
		t.Fatalf("warm run exit %d: %s", code, errOut)
	}
	if out1 != out2 {
		t.Fatalf("store-served run differs:\n--- cold ---\n%s--- warm ---\n%s", out1, out2)
	}
	if !strings.Contains(out1, "speedup:") {
		t.Fatalf("missing summary line:\n%s", out1)
	}
}
