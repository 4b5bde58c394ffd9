package harness

import (
	"strings"
	"testing"
)

func TestBenchReportEncodeStampsSchema(t *testing.T) {
	enc, err := BenchReport{Cells: 3, StoreHits: 2, StoreMisses: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	r, err := DecodeBenchReport(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != BenchReportSchema {
		t.Fatalf("schema = %d, want %d", r.Schema, BenchReportSchema)
	}
	if r.Cells != 3 || r.StoreHits != 2 || r.StoreMisses != 1 {
		t.Fatalf("round trip mangled report: %+v", r)
	}
}

func TestDecodeBenchReportSchemas(t *testing.T) {
	cases := []struct {
		name    string
		data    string
		wantErr string // substring; empty = ok
		check   func(t *testing.T, r BenchReport)
	}{
		{
			name: "schema 1 backward compatible",
			data: `{"schema":1,"cells":42,"workers":4,"identical_output":true}`,
			check: func(t *testing.T, r BenchReport) {
				if r.Cells != 42 || !r.IdenticalOutput {
					t.Fatalf("schema-1 fields lost: %+v", r)
				}
				if r.StoreHits != 0 || r.StoreMisses != 0 || r.StoreDir != "" {
					t.Fatalf("schema-2 fields nonzero from schema-1 input: %+v", r)
				}
			},
		},
		{
			name: "schema 2 with store fields",
			data: `{"schema":2,"cells":6,"store_dir":"/tmp/s","store_hits":6,"store_misses":0}`,
			check: func(t *testing.T, r BenchReport) {
				if r.StoreHits != 6 || r.StoreDir != "/tmp/s" {
					t.Fatalf("store fields lost: %+v", r)
				}
			},
		},
		{
			name: "schema 3 with interpreter throughput",
			data: `{"schema":3,"gomaxprocs":8,"tree_ns_per_insn":44.9,"bytecode_ns_per_insn":24.9,"interp_speedup":1.8}`,
			check: func(t *testing.T, r BenchReport) {
				if r.GoMaxProcs != 8 || r.TreeNsPerInsn != 44.9 ||
					r.BytecodeNsPerInsn != 24.9 || r.InterpSpeedup != 1.8 {
					t.Fatalf("interpreter fields lost: %+v", r)
				}
			},
		},
		{
			name: "schema 2 lacks interpreter fields",
			data: `{"schema":2,"cells":6,"gomaxprocs":0}`,
			check: func(t *testing.T, r BenchReport) {
				if r.GoMaxProcs != 0 || r.InterpSpeedup != 0 {
					t.Fatalf("schema-3 fields nonzero from schema-2 input: %+v", r)
				}
			},
		},
		{
			name: "schema 4 with host-speed reference",
			data: `{"schema":4,"serial_seconds":1.2,"host_ref_ms":30,"serial_per_ref":40,"parallel_per_ref":25}`,
			check: func(t *testing.T, r BenchReport) {
				if r.HostRefMs != 30 || r.SerialPerRef != 40 || r.ParallelPerRef != 25 {
					t.Fatalf("host-speed reference fields lost: %+v", r)
				}
			},
		},
		{
			name: "schema 3 lacks host-speed reference",
			data: `{"schema":3,"serial_seconds":1.2}`,
			check: func(t *testing.T, r BenchReport) {
				if r.HostRefMs != 0 || r.SerialPerRef != 0 {
					t.Fatalf("schema-4 fields nonzero from schema-3 input: %+v", r)
				}
			},
		},
		{name: "future schema rejected", data: `{"schema":99}`, wantErr: "schema 99"},
		{name: "missing schema rejected", data: `{"cells":1}`, wantErr: "schema 0"},
		{name: "not json", data: `schema: 1`, wantErr: "decoding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := DecodeBenchReport([]byte(tc.data))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, r)
		})
	}
}
