package cpu

import (
	"math"
	"reflect"
	"testing"

	"axmemo/internal/ir"
	"axmemo/internal/memo"
	"axmemo/internal/softmemo"
)

// runBCOutcome is what one drive of a lone bytecode thread leaves
// behind: the thread's results, the machine's statistics (partial ones
// on a budget halt), the error text and the hook event stream.
type runBCOutcome struct {
	rets   []uint64
	stats  Stats
	err    string
	events []ExecInfo
}

// TestRunBCWholeRunMatchesSingleSteps pins runBC's two call shapes
// against each other.  A lone thread runs to completion in one call
// (Machine.Run); SMT threads and cluster cores call it once per
// instruction (step).  Driving the same program both ways must give
// identical results, statistics, errors and hook event streams, across
// calls and returns, both memoization units, loads and stores, and
// every way a run halts early.
func TestRunBCWholeRunMatchesSingleSteps(t *testing.T) {
	memoCfg := func(cfg *Config) {
		mc := memo.DefaultConfig()
		mc.Monitor.Enabled = false
		cfg.Memo = &mc
	}
	softCfg := func(cfg *Config) {
		u, err := softmemo.New(softmemo.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Soft = u
	}
	// sweepArgs fills a fresh image with n inputs that repeat every 8,
	// so the memoized kernel both misses and hits.
	sweepArgs := func(img *Memory, n int) []uint64 {
		src, dst := img.Alloc(n*4), img.Alloc(n*4)
		for i := 0; i < n; i++ {
			img.SetF32(src+uint64(i*4), float32(i%8)+0.25)
		}
		return []uint64{src, dst, uint64(n)}
	}
	divZero, err := ir.Parse("program d\nfunc d(r0 i32) (i32) {\nb0: ;\n\tr1 = add.i32 r0, r0\n\tr2 = sdiv.i32 r1, r3\n\tret r2\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		prog    *ir.Program
		mutate  func(*Config)
		args    func(*Memory) []uint64
		wantErr bool
	}{
		{"calls", BuildHotLoop(), nil, func(*Memory) []uint64 { return []uint64{300} }, false},
		{"hardware memo", buildMemoSweep(), memoCfg, func(img *Memory) []uint64 { return sweepArgs(img, 48) }, false},
		{"software memo", buildMemoSweep(), softCfg, func(img *Memory) []uint64 { return sweepArgs(img, 48) }, false},
		{"instruction budget", BuildHotLoop(), func(cfg *Config) { cfg.MaxInsns = 1001 },
			func(*Memory) []uint64 { return []uint64{300} }, true},
		{"cycle budget", buildMemoSweep(), func(cfg *Config) { memoCfg(cfg); cfg.MaxCycles = 700 },
			func(img *Memory) []uint64 { return sweepArgs(img, 48) }, true},
		{"functional fault", divZero, nil, func(*Memory) []uint64 { return []uint64{7} }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drive := func(steps bool) runBCOutcome {
				var out runBCOutcome
				cfg := DefaultConfig()
				if tc.mutate != nil {
					tc.mutate(&cfg)
				}
				capInsns(&cfg)
				cfg.Hook = func(ei ExecInfo) { out.events = append(out.events, ei) }
				img := NewMemory(1 << 16)
				args := tc.args(img)
				m, err := New(tc.prog, img, cfg)
				if err != nil {
					t.Fatal(err)
				}
				th := m.newThread(0, args)
				if steps {
					// A step that stops the pc advancing still retires
					// and halts at the instruction cap; this guard ends
					// a step that stops retiring.
					for n := 0; !th.done && err == nil; n++ {
						if n > diffMaxInsns {
							t.Fatal("stepped run did not finish")
						}
						err = m.runBC(th, 1)
					}
				} else {
					err = m.runBC(th, math.MaxInt)
				}
				if err != nil {
					out.err = err.Error()
				}
				out.rets = th.rets
				if out.stats, err = m.finishStats(); err != nil {
					t.Fatal(err)
				}
				return out
			}
			whole, steps := drive(false), drive(true)
			if len(whole.events) == 0 {
				t.Fatal("no instruction executed")
			}
			if (whole.err != "") != tc.wantErr {
				t.Fatalf("whole run error %q, want an error: %v", whole.err, tc.wantErr)
			}
			if whole.err != steps.err {
				t.Fatalf("error divergence:\n  whole run: %q\n  one step:  %q", whole.err, steps.err)
			}
			if !reflect.DeepEqual(whole.rets, steps.rets) {
				t.Fatalf("results divergence: whole run %v, one step %v", whole.rets, steps.rets)
			}
			if !reflect.DeepEqual(whole.stats, steps.stats) {
				t.Fatalf("statistics divergence:\n  whole run: %+v\n  one step:  %+v", whole.stats, steps.stats)
			}
			if len(whole.events) != len(steps.events) {
				t.Fatalf("hook stream length divergence: whole run %d, one step %d", len(whole.events), len(steps.events))
			}
			for i := range whole.events {
				if whole.events[i] != steps.events[i] {
					t.Fatalf("hook event %d divergence:\n  whole run: %+v\n  one step:  %+v", i, whole.events[i], steps.events[i])
				}
			}
		})
	}
}

// TestHotLoopIterationInsns pins the per-iteration instruction count
// MeasureHotLoop sizes its runs by: a fixed prologue and epilogue of 7
// plus hotLoopIterInsns per iteration.
func TestHotLoopIterationInsns(t *testing.T) {
	for _, iters := range []uint64{1, 10, 100} {
		m, err := New(BuildHotLoop(), NewMemory(1<<12), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		if want := hotLoopIterInsns*iters + 7; res.Stats.Insns != want {
			t.Errorf("%d iterations retired %d instructions, want %d", iters, res.Stats.Insns, want)
		}
	}
}
