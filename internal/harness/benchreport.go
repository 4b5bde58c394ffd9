package harness

import (
	"encoding/json"
	"fmt"
)

// BenchReportSchema versions BENCH_harness.json; bump it whenever a
// field is renamed, removed, or changes meaning.  Schema history:
//
//	1  initial report (sweep wall-clock evidence)
//	2  adds result-store effectiveness (store_dir, store_hits,
//	   store_misses, store_evictions) — zero-valued without a store
//	3  adds gomaxprocs and interpreter throughput (tree_ns_per_insn,
//	   bytecode_ns_per_insn, interp_speedup) — the engine-comparison
//	   evidence; zero-valued when the interpreter benchmark is skipped
//	4  adds the host-speed reference (host_ref_ms, serial_per_ref,
//	   parallel_per_ref), so reports regenerated at different host
//	   speeds compare; interpreter throughput now times a whole run
//	   (Machine.Run), not one step per instruction
const BenchReportSchema = 4

// BenchReport is the machine-readable summary cmd/axbench writes
// (BENCH_harness.json): the evidence file for the parallel sweep
// scheduler's wall-clock claim and, when a result store is attached,
// for its cache effectiveness.  Consumers should decode through
// DecodeBenchReport, which accepts every schema up to the current one.
type BenchReport struct {
	Schema          int      `json:"schema"`
	Generated       string   `json:"generated"`
	GoVersion       string   `json:"go_version"`
	CPUs            int      `json:"cpus"`
	Scale           int      `json:"scale"`
	Figures         []string `json:"figures"`
	Cells           int      `json:"cells"`
	Workers         int      `json:"workers"`
	SerialSeconds   float64  `json:"serial_seconds"`
	ParallelSeconds float64  `json:"parallel_seconds"`
	Speedup         float64  `json:"speedup"`
	IdenticalOutput bool     `json:"identical_output"`

	// Result-store effectiveness (schema >= 2); zero-valued when no
	// store was attached to the sweep.
	StoreDir       string `json:"store_dir,omitempty"`
	StoreHits      uint64 `json:"store_hits"`
	StoreMisses    uint64 `json:"store_misses"`
	StoreEvictions uint64 `json:"store_evictions"`

	// Interpreter throughput (schema >= 3).  GoMaxProcs is the effective
	// GOMAXPROCS of the run — when it is 1 (as on a single-CPU container)
	// the parallel-sweep Speedup above is meaningless, so consumers
	// should gate on it.  TreeNsPerInsn and BytecodeNsPerInsn are
	// wall-clock nanoseconds per retired instruction on the hot-loop
	// program (cpu.MeasureHotLoop) for each engine; InterpSpeedup is
	// their ratio (tree/bytecode, >1 means the bytecode engine is
	// faster).  Zero-valued when the interpreter benchmark is skipped.
	GoMaxProcs        int     `json:"gomaxprocs"`
	TreeNsPerInsn     float64 `json:"tree_ns_per_insn"`
	BytecodeNsPerInsn float64 `json:"bytecode_ns_per_insn"`
	InterpSpeedup     float64 `json:"interp_speedup"`

	// Host-speed reference (schema >= 4).  HostRefMs is the median wall
	// time of a fixed kernel, the Go standard library's JSON encoder
	// and decoder on a fixed document, timed before, between and after
	// the two sweeps.  SerialPerRef and ParallelPerRef are the sweep
	// times in units of that kernel: a shared host's speed drifts by up
	// to 3x, so wall times from two regenerations compare only through
	// these ratios.
	HostRefMs      float64 `json:"host_ref_ms"`
	SerialPerRef   float64 `json:"serial_per_ref"`
	ParallelPerRef float64 `json:"parallel_per_ref"`
}

// Encode renders the report as indented JSON with a trailing newline,
// stamping the current schema version.
func (r BenchReport) Encode() ([]byte, error) {
	r.Schema = BenchReportSchema
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// DecodeBenchReport parses a BENCH_harness.json of any supported
// schema.  Fields introduced by later schemas decode as zero values
// from older reports, so schema-1 files keep working; files from a
// future schema are rejected rather than silently misread.
func DecodeBenchReport(data []byte) (BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return BenchReport{}, fmt.Errorf("harness: decoding bench report: %w", err)
	}
	if r.Schema < 1 || r.Schema > BenchReportSchema {
		return BenchReport{}, fmt.Errorf("harness: bench report schema %d unsupported (have 1..%d)",
			r.Schema, BenchReportSchema)
	}
	return r, nil
}
