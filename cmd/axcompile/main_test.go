package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"axmemo/internal/cli"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./cmd/axcompile -run TestDisasm -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata")

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
		wantOut  string
		wantErr  string
	}{
		{name: "help", args: []string{"-h"}, wantCode: 0, wantErr: "-bench"},
		{name: "bad flag", args: []string{"-definitely-not-a-flag"}, wantCode: 2, wantErr: "definitely-not-a-flag"},
		{name: "no selection", args: nil, wantCode: 2, wantErr: "-table1"},
		{name: "unknown bench", args: []string{"-bench", "no-such-bench"}, wantCode: 1},
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

// TestDisasmGolden pins the complete disassembly of one memoized
// workload: pcs, opcodes, resolved operand indices and source IR
// references must all stay stable (regenerate with -update if the
// bytecode format intentionally changes).
func TestDisasmGolden(t *testing.T) {
	code, out, errOut := runCmd(t, "-bench", "sobel", "-disasm")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut)
	}
	path := filepath.Join("testdata", "disasm_sobel.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if out != string(want) {
		t.Errorf("disassembly drifted from the golden file (regenerate with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			out, want)
	}
}

func TestDisasmNeedsBench(t *testing.T) {
	if code, _, errOut := runCmd(t, "-disasm"); code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errOut)
	}
}

func TestAnalyzeBench(t *testing.T) {
	code, out, errOut := runCmd(t, "-bench", "blackscholes", "-max-entries", "20000")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"benchmark:", "dynamic subgraphs:", "memoization coverage:", "suggested kernels:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}
