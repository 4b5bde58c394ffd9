package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"axmemo/internal/cli"
	"axmemo/internal/harness"
)

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
		wantErr  string
	}{
		{name: "help", args: []string{"-h"}, wantCode: 0, wantErr: "-figures"},
		{name: "bad flag", args: []string{"-definitely-not-a-flag"}, wantCode: 2, wantErr: "definitely-not-a-flag"},
		{name: "unknown figure", args: []string{"-figures", "Fig99"}, wantCode: 1},
		// No flag selects an engine: -engine is an unknown flag.
		{name: "unknown engine", args: []string{"-engine", "llvm"}, wantCode: 2, wantErr: "-engine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := runCmd(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, errOut)
			}
			if tc.wantErr != "" && !strings.Contains(errOut, tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, errOut)
			}
		})
	}
}

func TestBenchEndToEnd(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "bench.json")
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.json")

	code, out, errOut := runCmd(t, "-figures", "ABL-RATE", "-workers", "2", "-out", report,
		"-interp-insns", "200000", "-metrics-out", metrics, "-trace-out", trace)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "identical=true") {
		t.Errorf("stdout missing identical=true:\n%s", out)
	}
	if !strings.Contains(out, "interpreter:") {
		t.Errorf("stdout missing interpreter throughput line:\n%s", out)
	}

	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var r harness.BenchReport
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if r.Schema != harness.BenchReportSchema {
		t.Errorf("schema = %d, want %d", r.Schema, harness.BenchReportSchema)
	}
	if !r.IdenticalOutput {
		t.Error("parallel sweep output differed from serial")
	}
	if r.Cells == 0 || r.Workers != 2 {
		t.Errorf("report cells/workers = %d/%d", r.Cells, r.Workers)
	}
	if r.GoMaxProcs < 1 {
		t.Errorf("gomaxprocs = %d, want >= 1", r.GoMaxProcs)
	}
	if r.TreeNsPerInsn <= 0 || r.BytecodeNsPerInsn <= 0 || r.InterpSpeedup <= 0 {
		t.Errorf("interpreter throughput fields not populated: %+v", r)
	}
	if r.HostRefMs <= 0 {
		t.Errorf("host-speed reference not timed: %+v", r)
	}
	if got := r.SerialSeconds * 1e3 / r.HostRefMs; math.Abs(got-r.SerialPerRef) > 1e-9*got {
		t.Errorf("serial_per_ref = %v, want serial_seconds / host_ref_ms = %v", r.SerialPerRef, got)
	}
	if got := r.ParallelSeconds * 1e3 / r.HostRefMs; math.Abs(got-r.ParallelPerRef) > 1e-9*got {
		t.Errorf("parallel_per_ref = %v, want parallel_seconds / host_ref_ms = %v", r.ParallelPerRef, got)
	}

	for _, p := range []string{metrics, trace} {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(raw) {
			t.Errorf("%s is not valid JSON", p)
		}
	}
}

// TestBenchStoreReport: with -store-dir the schema-2 report records the
// parallel sweep's store effectiveness — all misses on a cold store,
// all hits when rerun against the warm one.
func TestBenchStoreReport(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	report := filepath.Join(dir, "bench.json")

	cells, err := harness.SweepCells("ABL-RATE")
	if err != nil {
		t.Fatal(err)
	}
	decode := func() harness.BenchReport {
		t.Helper()
		data, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		r, err := harness.DecodeBenchReport(data)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	code, _, errOut := runCmd(t, "-figures", "ABL-RATE", "-workers", "2", "-out", report,
		"-interp-insns", "0", "-store-dir", storeDir)
	if code != 0 {
		t.Fatalf("cold bench exit %d: %s", code, errOut)
	}
	cold := decode()
	if cold.Schema != harness.BenchReportSchema || cold.StoreDir != storeDir {
		t.Fatalf("cold report schema/dir = %d/%q", cold.Schema, cold.StoreDir)
	}
	// -interp-insns 0 skips the engine measurement: fields stay zero.
	if cold.TreeNsPerInsn != 0 || cold.BytecodeNsPerInsn != 0 || cold.InterpSpeedup != 0 {
		t.Fatalf("skipped interpreter benchmark still populated fields: %+v", cold)
	}
	if cold.StoreMisses != uint64(len(cells)) || cold.StoreHits != 0 {
		t.Fatalf("cold report store counts = %d hits/%d misses, want 0/%d",
			cold.StoreHits, cold.StoreMisses, len(cells))
	}

	code, _, errOut = runCmd(t, "-figures", "ABL-RATE", "-workers", "2", "-out", report,
		"-interp-insns", "0", "-store-dir", storeDir)
	if code != 0 {
		t.Fatalf("warm bench exit %d: %s", code, errOut)
	}
	warm := decode()
	if warm.StoreHits != uint64(len(cells)) || warm.StoreMisses != 0 {
		t.Fatalf("warm report store counts = %d hits/%d misses, want %d/0",
			warm.StoreHits, warm.StoreMisses, len(cells))
	}
	if !warm.IdenticalOutput {
		t.Fatal("warm sweep output differed from serial")
	}
}
