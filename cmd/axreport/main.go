// Command axreport regenerates every table and figure of the paper's
// evaluation section (ISCA'19 §6) and prints them, optionally writing the
// whole report to a file (the basis of EXPERIMENTS.md).
//
// Usage:
//
//	axreport [-scale 1] [-parallel 4] [-only Fig7a,Fig9] [-o report.txt]
//	axreport -only Fig7a -metrics-out metrics.json -trace-out trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"axmemo/internal/cli"
	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/store"
)

func main() { cli.Main("axreport", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("axreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Int("scale", 1, "input scale for all experiments")
		parallel = fs.Int("parallel", 0, "sweep worker pool size (0 = one worker per CPU, 1 = serial)")
		only     = fs.String("only", "", "comma-separated subset of artifact IDs (e.g. Fig7a,Fig9,Table1)")
		out      = fs.String("o", "", "also write the report to this file")
		asJSON   = fs.Bool("json", false, "emit the figures as JSON instead of text tables")
		withBars = fs.Bool("bars", false, "append an ASCII bar chart of each figure's last data column")

		metricsOut = fs.String("metrics-out", "", "write the sweep's deterministic metrics snapshot (JSON) to this file")
		traceOut   = fs.String("trace-out", "", "write the sweep's Chrome trace-event timeline (JSON) to this file")

		storeDir      = fs.String("store-dir", "", "reuse simulation results from this content-addressed store directory (shared with axmemod)")
		storeMaxBytes = fs.Int64("store-max-bytes", 0, "store size budget; least-recently-used cells are evicted past it (0 = unlimited)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToLower(id)] = true
		}
	}
	selected := func(id string) bool {
		return len(want) == 0 || want[strings.ToLower(id)]
	}

	s := harness.NewSuite(*scale)
	s.Parallel = *parallel
	if *metricsOut != "" || *traceOut != "" {
		s.Obs = obs.NewSink()
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *storeMaxBytes)
		if err != nil {
			return err
		}
		defer st.Close()
		s.Store = st
		st.Attach(s.Obs)
	}

	var b strings.Builder
	var figures []*harness.Figure
	if !*asJSON {
		fmt.Fprintf(&b, "AxMemo reproduction report (input scale %d)\n\n", *scale)
	}
	emit := func(fig *harness.Figure) {
		if *asJSON {
			figures = append(figures, fig)
			return
		}
		b.WriteString(fig.String())
		if *withBars {
			if bars := fig.Bars(len(fig.Header)-1, 40); bars != "" {
				b.WriteByte('\n')
				b.WriteString(bars)
			}
		}
		b.WriteByte('\n')
	}

	tables := []struct {
		id string
		fn func() (*harness.Figure, error)
	}{
		{"Table1", func() (*harness.Figure, error) { return harness.Table1(0) }},
		{"Table2", func() (*harness.Figure, error) { return harness.Table2(), nil }},
		{"Table4", func() (*harness.Figure, error) { return harness.Table4(), nil }},
		{"Table5", func() (*harness.Figure, error) { return harness.Table5(), nil }},
	}
	for _, tb := range tables {
		if !selected(tb.id) {
			continue
		}
		fig, err := tb.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", tb.id, err)
		}
		emit(fig)
	}

	// The selected figures' deduplicated sweep cells run on the worker
	// pool and render in report order, byte-identical to a serial run.
	var sweepIDs []string
	for _, id := range harness.FigureIDs() {
		if selected(id) {
			sweepIDs = append(sweepIDs, id)
		}
	}
	if len(sweepIDs) > 0 {
		figs, err := s.GenerateAll(sweepIDs...)
		if err != nil {
			return err
		}
		for _, fig := range figs {
			emit(fig)
		}
	}

	if *asJSON {
		enc, err := json.MarshalIndent(figures, "", "  ")
		if err != nil {
			return err
		}
		b.Write(enc)
		b.WriteByte('\n')
	}

	fmt.Fprint(stdout, b.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return s.Obs.WriteFiles(*metricsOut, *traceOut, "")
}
