package cpu

import (
	"testing"
	"time"

	"axmemo/internal/obs"
)

// benchStepHotPath measures the per-retired-instruction cost of the
// step loop on a call-heavy program (BuildHotLoop).  One benchmark op
// is one step, which on both engines retires exactly one instruction.
// The acceptance bar is 0 allocs/op for both engines: frame recycling
// and the machine-held operand scratch must keep the steady-state path
// off the heap entirely.
func benchStepHotPath(b *testing.B, eng Engine, sink *obs.Sink) {
	prog := BuildHotLoop()
	cfg := DefaultConfig()
	cfg.Engine = eng
	cfg.MaxInsns = 1 << 62
	if sink != nil {
		cfg.Obs = sink
		cfg.ObsRun = "bench"
	}
	m, err := New(prog, NewMemory(1<<12), cfg)
	if err != nil {
		b.Fatal(err)
	}
	args := []uint64{1 << 30} // effectively unbounded loop
	t := m.newThread(0, args)
	b.ReportAllocs()
	b.ResetTimer()
	target := m.insns + uint64(b.N)
	for m.insns < target {
		if err := m.step(t); err != nil {
			b.Fatal(err)
		}
		if t.done {
			b.StopTimer()
			t = m.newThread(0, args)
			b.StartTimer()
		}
	}
}

// BenchmarkStepHotPath runs the hot path on both engines; CI gates on
// the bytecode engine being faster at 0 allocs/op.
func BenchmarkStepHotPath(b *testing.B) {
	for _, eng := range []Engine{EngineTree, EngineBytecode} {
		b.Run(eng.String(), func(b *testing.B) {
			benchStepHotPath(b, eng, nil)
		})
	}
}

// BenchmarkRunSMT runs two hot-loop threads through Machine.RunSMT:
// the round-robin interleaving over shared issue slots, functional
// units and caches that every SMT run takes.  ns/op is reported per
// retired instruction of both threads, comparable with
// BenchmarkStepHotPath; CI gates on the bytecode engine beating the
// tree oracle here too.
func BenchmarkRunSMT(b *testing.B) {
	for _, eng := range []Engine{EngineTree, EngineBytecode} {
		b.Run(eng.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Engine = eng
			m, err := New(BuildHotLoop(), NewMemory(1<<12), cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Two threads of b.N/24 iterations retire about b.N
			// instructions in all.
			iters := []uint64{uint64(b.N)/(2*hotLoopIterInsns) + 1}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			res, err := m.RunSMT(iters, iters)
			elapsed := time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(res.Stats.Insns), "ns/op")
		})
	}
}

// BenchmarkRunHotLoop runs one hot-loop thread to completion through
// Machine.Run, the path every single-threaded simulation takes: on the
// bytecode engine, one runBC call for the whole run.  ns/op is reported
// per retired instruction, comparable with BenchmarkStepHotPath; CI
// gates on the bytecode engine beating the tree oracle and on 0
// allocs/op.
func BenchmarkRunHotLoop(b *testing.B) {
	for _, eng := range []Engine{EngineTree, EngineBytecode} {
		b.Run(eng.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Engine = eng
			m, err := New(BuildHotLoop(), NewMemory(1<<12), cfg)
			if err != nil {
				b.Fatal(err)
			}
			iters := uint64(b.N)/hotLoopIterInsns + 1
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			res, err := m.Run(iters)
			elapsed := time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(res.Stats.Insns), "ns/op")
		})
	}
}

// BenchmarkStepHotPathObs is BenchmarkStepHotPath with an observability
// sink attached: the per-instruction overhead is one array index and
// one atomic add (the cached hotObs counter handles), still with 0
// allocs/op.  Comparing the two ns/op figures is the documented cost of
// enabling metrics collection.
func BenchmarkStepHotPathObs(b *testing.B) {
	for _, eng := range []Engine{EngineTree, EngineBytecode} {
		b.Run(eng.String(), func(b *testing.B) {
			benchStepHotPath(b, eng, obs.NewSink())
		})
	}
}

// BenchmarkRunSumLoop measures a whole Machine.Run of a tight load/add
// loop, the simplest end-to-end figure for interpreter throughput
// (machine construction, including the bytecode compile, is inside the
// measured loop).
func BenchmarkRunSumLoop(b *testing.B) {
	for _, eng := range []Engine{EngineTree, EngineBytecode} {
		b.Run(eng.String(), func(b *testing.B) {
			prog := buildSumLoop()
			const n = 1024
			img := NewMemory(1 << 16)
			for i := 0; i < n; i++ {
				img.SetF32(uint64(4*i), 1.0)
			}
			if err := img.Err(); err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Engine = eng
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := New(prog, img, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(0, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
