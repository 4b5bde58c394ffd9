package main

import (
	"fmt"
	"io"

	"axmemo/internal/harness"
	"axmemo/internal/manager"
	"axmemo/internal/obs"
	"axmemo/internal/store"
)

// runManage converges the approximation manager for every tenant in
// the tenants file on one benchmark, printing the per-epoch control
// trajectory and an A/B table against the static Table 2 defaults.
// Evaluations route through a suite, so an attached store (or a
// previous run) turns repeated operating points into cache hits.
func runManage(stdout io.Writer, sink *obs.Sink, st *store.Store, tenantsPath, bench string, scale, epochs, lutKB int) error {
	tenants, err := manager.LoadTenantsFile(tenantsPath)
	if err != nil {
		return err
	}
	mgr := manager.New(manager.Config{TotalLUTKB: lutKB, Seed: 1, Obs: sink})
	for _, t := range tenants {
		if _, err := mgr.Upsert(t); err != nil {
			return err
		}
	}
	suite := harness.NewSuite(scale)
	suite.Obs = sink
	if st != nil {
		suite.Store = st
	}

	rep, err := mgr.ABCompare(&manager.SuiteEvaluator{Suite: suite}, bench, epochs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchmark: %s, scale %d, %d tenants, %d control epochs (settled=%v)\n",
		bench, scale, len(tenants), rep.Converge.Epochs, rep.Converge.AllSettled)
	fmt.Fprintf(stdout, "%-6s %-12s %5s %4s %10s %8s %6s\n",
		"epoch", "tenant", "lvl", "dir", "mean err", "speedup", "trips")
	for _, r := range rep.Converge.Records {
		fmt.Fprintf(stdout, "%-6d %-12s %5d %4s %9.4f%% %7.2fx %6d\n",
			r.Epoch, r.Tenant, r.Level, r.Direction, 100*r.MeanError, r.Speedup, r.GuardTrips)
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rep.String())
	return nil
}
