package cpu

import (
	"errors"
	"fmt"

	"axmemo/internal/ir"
	"axmemo/internal/mem"
)

// Cluster models the two-core arrangement of Table 3: each core has its
// own pipeline, private L1 data cache and private memoization unit (the
// units are "private to each CPU core", §3), while the usable portion of
// the L2 is shared.  No coherence traffic is modeled for the LUTs because
// none is required: entries are pure input→output pairs that are never
// written back (§3.4).
//
// Cores execute round-robin one instruction at a time; the cluster's
// completion time is the slowest core's.  Memory-port arbitration between
// cores is not modeled (each core sees its own latency into the shared
// L2), which is adequate for the capacity-contention effects the paper's
// sensitivity study concerns.
type Cluster struct {
	Cores []*Machine
	l2    *mem.Cache
}

// NewCluster builds nCores cores over one shared memory image.  Every
// core gets the same configuration; cfg.Memo (if set) yields one private
// unit per core.
func NewCluster(prog *ir.Program, image *Memory, cfg Config, nCores int) (*Cluster, error) {
	if nCores < 1 {
		return nil, fmt.Errorf("cpu: cluster needs at least one core")
	}
	shared, err := mem.SharedL2(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{l2: shared}
	for i := 0; i < nCores; i++ {
		m, err := newMachine(prog, image, cfg, func() (*mem.Hierarchy, error) {
			return mem.NewHierarchySharing(cfg.Hierarchy, shared)
		})
		if err != nil {
			return nil, err
		}
		cl.Cores = append(cl.Cores, m)
	}
	return cl, nil
}

// SharedL2Stats exposes the shared cache's statistics.
func (c *Cluster) SharedL2Stats() mem.Stats { return c.l2.Stats() }

// ClusterResult is the outcome of a cluster run.
type ClusterResult struct {
	// Rets holds each core's entry-function results.
	Rets [][]uint64
	// PerCore holds each core's statistics.
	PerCore []Stats
	// Cycles is the completion time of the slowest core.
	Cycles uint64
	// Insns is the total dynamic instruction count across cores.
	Insns uint64
}

// Run executes one entry-function activation per core (argSets[i] on core
// i), interleaving the cores instruction by instruction.
func (c *Cluster) Run(argSets ...[]uint64) (res *ClusterResult, err error) {
	if len(argSets) != len(c.Cores) {
		return nil, fmt.Errorf("cpu: %d argument sets for %d cores", len(argSets), len(c.Cores))
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cpu: %v", r)
		}
	}()
	threads := make([]*threadState, len(c.Cores))
	for i, m := range c.Cores {
		entry := m.prog.EntryFunc()
		if len(argSets[i]) != len(entry.ParamTypes) {
			return nil, fmt.Errorf("cpu: core %d: entry takes %d args, got %d",
				i, len(entry.ParamTypes), len(argSets[i]))
		}
		threads[i] = m.newThread(0, argSets[i])
	}
	remaining := len(c.Cores)
	var haltErr error
halted:
	for remaining > 0 {
		for i, m := range c.Cores {
			t := threads[i]
			if t.done {
				continue
			}
			if err := m.step(t); err != nil {
				err = fmt.Errorf("core %d: %w", i, err)
				if errors.Is(err, ErrCycleBudget) || errors.Is(err, ErrInsnBudget) {
					// Budget halt: stop the whole cluster but still
					// assemble the partial statistics below.
					haltErr = err
					break halted
				}
				return nil, err
			}
			if t.done {
				remaining--
			}
		}
	}
	out := &ClusterResult{}
	for i, m := range c.Cores {
		st, err := m.finishStats()
		if err != nil {
			return nil, err
		}
		out.Rets = append(out.Rets, threads[i].rets)
		out.PerCore = append(out.PerCore, st)
		if st.Cycles > out.Cycles {
			out.Cycles = st.Cycles
		}
		out.Insns += st.Insns
	}
	return out, haltErr
}
