package cpu

import (
	"fmt"
	"time"

	"axmemo/internal/ir"
)

// hotLoopIterInsns is how many instructions one iteration of
// BuildHotLoop's driver loop retires: compare and branch, the call, the
// kernel's five, and the loop's two moves, add and jump.
const hotLoopIterInsns = 12

// BuildHotLoop builds a call-heavy steady-state program: a driver loop
// that calls a small float kernel each iteration, as many iterations
// as its argument says.  It exercises the full per-instruction path —
// scoreboarding, ALU and branch issue, call/return frame churn.  It is
// the workload of the hot-path benchmarks and of axbench's engine
// throughput report.
func BuildHotLoop() *ir.Program {
	p := ir.NewProgram("hot")

	k := p.NewFunc("kernel", []ir.Type{ir.F32}, []ir.Type{ir.F32})
	kb := k.NewBlock("entry")
	bu := ir.At(k, kb)
	c := bu.ConstF32(1.0001)
	v := bu.Bin(ir.FMul, ir.F32, k.Params[0], c)
	v = bu.Bin(ir.FAdd, ir.F32, v, c)
	v = bu.Un(ir.FAbs, ir.F32, v)
	bu.Ret(v)

	f := p.NewFunc("hot", []ir.Type{ir.I32}, []ir.Type{ir.F32})
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	body := f.NewBlock("body")
	done := f.NewBlock("done")

	bu = ir.At(f, entry)
	acc := bu.ConstF32(0.5)
	i := bu.ConstI32(0)
	one := bu.ConstI32(1)
	bu.Jmp(loop)

	bu.SetBlock(loop)
	cnd := bu.Bin(ir.CmpLT, ir.I32, i, f.Params[0])
	bu.Br(cnd, body, done)

	bu.SetBlock(body)
	r := bu.Call("kernel", 1, acc)[0]
	bu.MovTo(ir.F32, acc, r)
	i2 := bu.Bin(ir.Add, ir.I32, i, one)
	bu.MovTo(ir.I32, i, i2)
	bu.Jmp(loop)

	bu.SetBlock(done)
	bu.Ret(acc)
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

// MeasureHotLoop runs the hot-loop program on the given engine as one
// thread through Machine.Run, the path every single-threaded simulation
// takes, for enough iterations to retire at least insns instructions,
// and reports the mean wall-clock nanoseconds per retired instruction.
// axbench records this for both engines in BENCH_harness.json so the
// interpreter-throughput claim is reproducible outside `go test -bench`.
func MeasureHotLoop(e Engine, insns uint64) (nsPerInsn float64, err error) {
	if insns == 0 {
		return 0, fmt.Errorf("cpu: zero instruction budget")
	}
	cfg := DefaultConfig()
	cfg.Engine = e
	m, err := New(BuildHotLoop(), NewMemory(1<<12), cfg)
	if err != nil {
		return 0, err
	}
	iters := (insns + hotLoopIterInsns - 1) / hotLoopIterInsns
	start := time.Now()
	res, err := m.Run(iters)
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	return float64(elapsed.Nanoseconds()) / float64(res.Stats.Insns), nil
}
