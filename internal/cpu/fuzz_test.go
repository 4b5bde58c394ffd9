package cpu

import (
	"errors"
	"testing"

	"axmemo/internal/ir"
	"axmemo/internal/memo"
)

// FuzzRun drives the whole simulator front door with arbitrary textual
// IR: whatever the parser accepts must either run to completion or fail
// with an error — never panic the host and never run unbounded.  This is
// the end-to-end check behind the panic-free hardening: validation bounds
// every table index, memory accesses return ErrOOBAccess, and the
// MaxInsns/MaxCycles watchdogs cut off non-terminating programs.
//
// Every accepted input runs twice — as one thread, then as two SMT
// threads with the same arguments sharing a two-context memoization
// unit — and each time on both engines; any divergence in results,
// error text, statistics (partial ones on a budget halt included) or
// the hook event stream between the bytecode engine and its tree oracle
// is a failure.
func FuzzRun(f *testing.F) {
	f.Add("program main\n\nfunc main(r0 f32) (f32) {\nb0: ; entry\n\tr1 = fmul.f32 r0, r0\n\tret r1\n}\n")
	f.Add("program x\nfunc x() {\nb0: ;\n\tjmp b0\n}\n") // infinite loop: watchdog territory
	// A lookup whose result feeds the next instruction, between a feed
	// and an update.
	f.Add("program p\nfunc p(r0 i64) (f32) {\nb0: ;\n\tr1 = ld_crc.f32 [r0+0], lut2, n6\n\tr2, r3 = lookup lut2\n\tupdate lut2, r1\n\tinvalidate lut2\n\tret r1\n}\n")
	f.Add("program m\nfunc m(r0 i64) (i32) {\nb0: ;\n\tr1 = load.i32 [r0+1048576]\n\tret r1\n}\n")
	// Compare+branch back-edge: a branch reading the compare just
	// before it, and the BTFN-relevant backward-branch bookkeeping.
	f.Add("program l\nfunc l(r0 i32) (i32) {\nb0: ;\n\tr1 = cmplt.i32 r1, r0\n\tbr r1, b1, b2\nb1: ;\n\tr2 = add.i32 r2, r0\n\tjmp b0\nb2: ;\n\tret r2\n}\n")
	// Division by zero: both engines must fail with the identical error.
	f.Add("program d\nfunc d(r0 i32) (i32) {\nb0: ;\n\tr1 = sdiv.i32 r0, r2\n\tret r1\n}\n")
	// Load+convert: a conversion waiting on a cache-latency operand.
	f.Add("program c\nfunc c(r0 i64) (f64) {\nb0: ;\n\tr1 = load.f32 [r0+0]\n\tr2 = cvt.f32.f64 r1\n\tret r2\n}\n")
	// Invalid op/type combination (sqrt.i32): passes validation, fails
	// at run time — the bytecode FallbackOp must reproduce it exactly.
	f.Add("program q\nfunc q(r0 i32) (i32) {\nb0: ;\n\tr1 = sqrt.i32 r0\n\tret r1\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ir.Parse(src)
		if err != nil {
			return // parser rejection is fine
		}
		if err := prog.Validate(); err != nil {
			return
		}
		entry := prog.EntryFunc()
		if entry == nil {
			return
		}
		args := make([]uint64, len(entry.ParamTypes))
		for i := range args {
			args[i] = 64 // a valid in-image address, in case params are pointers
		}
		for threads := 1; threads <= 2; threads++ {
			cfg := DefaultConfig()
			mc := memo.DefaultConfig()
			mc.Threads = threads
			cfg.Memo = &mc
			cfg.MaxInsns = 10_000
			cfg.MaxCycles = 100_000
			argSets := make([][]uint64, threads)
			for i := range argSets {
				argSets[i] = args
			}
			res, _, err := diffEngines(t, cfg, func(cfg Config) (*SMTResult, error) {
				m, err := New(prog, NewMemory(1<<16), cfg)
				if err != nil {
					return nil, err // construction-time rejection
				}
				return m.RunSMT(argSets...)
			})
			// Budget halts must carry partial statistics.
			if errors.Is(err, ErrInsnBudget) || errors.Is(err, ErrCycleBudget) {
				if res == nil {
					t.Fatalf("%d threads: budget halt without partial stats", threads)
				}
			} else if err == nil && res == nil {
				t.Fatalf("%d threads: nil result without error", threads)
			}
		}
	})
}
