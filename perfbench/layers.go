package main

import (
	"fmt"
	"math/rand"
	"time"

	"axmemo/internal/compiler"
	"axmemo/internal/cpu"
	"axmemo/internal/harness"
	"axmemo/internal/workloads"
)

// Layer probes every traced run makes outside its measured windows:
// calls straight into one layer's exported functions, each timed as a
// root span of its own.

// probeReqBase numbers probe operations apart from workload operations.
const probeReqBase = 1 << 40

// hotLoopInsns is the instruction budget of one hot-loop measurement.
const hotLoopInsns = 4_000_000

// hotLoops reports sim.hotloop_ns.* on cpu.BuildHotLoop: bytecode and
// tree at one thread (cpu.MeasureHotLoop), 2-thread SMT
// (Machine.RunSMT) and 2 cores (cpu.NewCluster), each the median of
// three measurements.
func hotLoops(tl *spanLog, r *report) error {
	iters := uint64(hotLoopInsns / 12 / 2) // ~12 instructions per iteration, per thread
	smt := func() (float64, error) {
		m, err := cpu.New(cpu.BuildHotLoop(), cpu.NewMemory(1<<12), cpu.DefaultConfig())
		if err != nil {
			return 0, err
		}
		t := time.Now()
		res, err := m.RunSMT([]uint64{iters}, []uint64{iters})
		if err != nil {
			return 0, err
		}
		return float64(time.Since(t).Nanoseconds()) / float64(res.Stats.Insns), nil
	}
	cores := func() (float64, error) {
		cl, err := cpu.NewCluster(cpu.BuildHotLoop(), cpu.NewMemory(1<<12), cpu.DefaultConfig(), 2)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		res, err := cl.Run([]uint64{iters}, []uint64{iters})
		if err != nil {
			return 0, err
		}
		return float64(time.Since(t).Nanoseconds()) / float64(res.Insns), nil
	}
	probes := []struct {
		name string
		f    func() (float64, error)
	}{
		{"bytecode", func() (float64, error) { return cpu.MeasureHotLoop(cpu.EngineBytecode, hotLoopInsns) }},
		{"tree", func() (float64, error) { return cpu.MeasureHotLoop(cpu.EngineTree, hotLoopInsns) }},
		{"smt2", smt},
		{"cores2", cores},
	}
	req := uint64(probeReqBase)
	for _, p := range probes {
		var ns []float64
		for i := 0; i < 3; i++ {
			req++
			sp := tl.start("cpu.hotloop."+p.name, req, 0, 0)
			v, err := p.f()
			sp.finish()
			if err != nil {
				return fmt.Errorf("hot loop %s: %w", p.name, err)
			}
			ns = append(ns, v)
		}
		r.set("sim.hotloop_ns."+p.name, median(ns), "ns")
	}
	return nil
}

// transformProbe reports compiler.transform_ms: compiler.Transform of
// each workload's memoization regions into a freshly built program,
// three rounds over all ten workloads, median per call.
func transformProbe(tl *spanLog, r *report) error {
	var msv []float64
	req := uint64(probeReqBase + 100)
	for round := 0; round < 3; round++ {
		for _, w := range workloads.All() {
			prog, regions := w.Build(), w.Regions(nil)
			req++
			sp := tl.start("compiler.transform", req, 0, 0)
			err := compiler.Transform(prog, regions)
			s := sp.finish()
			if err != nil {
				return fmt.Errorf("transform %s: %w", w.Name, err)
			}
			msv = append(msv, ms(s.dur()))
		}
	}
	r.set("compiler.transform_ms", median(msv), "ms")
	return nil
}

// hitProbe reports harness.hit_us: Suite.RunCell on cells the suite
// already holds, drawn at random, each timed.
func hitProbe(tl *spanLog, r *report, s *harness.Suite, cells []harness.SweepCell, seed int64) error {
	if len(cells) == 0 {
		return fmt.Errorf("hit probe: no cached cells")
	}
	rng := rand.New(rand.NewSource(seed))
	var us []float64
	req := uint64(probeReqBase + 1000)
	for i := 0; i < 20000; i++ {
		c := cells[rng.Intn(len(cells))]
		req++
		sp := tl.start("harness.runcell", req, 0, 0)
		_, executed, err := s.RunCell(c)
		d := sp.finish().dur()
		if err != nil || executed {
			return fmt.Errorf("hit probe: %s/%s was not a cached hit (err %v)", c.Workload, c.Config.Name, err)
		}
		us = append(us, float64(d)/float64(time.Microsecond))
	}
	r.set("harness.hit_us.p50", quantile(us, 0.5), "us")
	r.set("harness.hit_us.p99", quantile(us, 0.99), "us")
	return nil
}

// layerProbes runs the probes every traced run reports.
func layerProbes(tl *spanLog, r *report) error {
	if err := hotLoops(tl, r); err != nil {
		return err
	}
	return transformProbe(tl, r)
}
