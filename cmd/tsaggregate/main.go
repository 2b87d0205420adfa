// Command tsaggregate aggregates a link stream into a series of graphs
// at a chosen period ∆ (Definition 1 of the paper) and reports
// per-snapshot statistics, dumps the snapshots as edge lists, or — with
// -metrics — computes snapshot metrics (degree, clustering, components,
// coreness, weighted aggregation) at that ∆ through the sweep engine.
//
// Usage:
//
//	tsaggregate -delta 3600 < stream.txt
//	tsaggregate -delta 3600 -dump < stream.txt
//	tsaggregate -delta 3600 -metrics degree,weighted < stream.txt
//
// The engine flags -workers, -max-inflight and -lane-width are the
// shared internal/cli bindings — they mean exactly what they mean on
// tsscale and tsvalidate, shape only the -metrics engine pass, and
// never change results.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/series"
	"repro/internal/temporal"
	"repro/internal/textplot"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsaggregate:", err)
		os.Exit(1)
	}
}

// snapshotMetrics is the metric set tsaggregate accepts: the per-∆
// snapshot metrics, which are meaningful at a single aggregation
// period. Sweep metrics (occupancy, loss, ...) need a candidate grid —
// that is tsscale's and tsvalidate's job.
var snapshotMetrics = []repro.Metric{
	repro.MetricDegree, repro.MetricClustering, repro.MetricComponents,
	repro.MetricCoreness, repro.MetricWeighted,
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("tsaggregate", flag.ContinueOnError)
	in := fs.String("in", "", "input stream file, any format — text, LSB binary, LSC columnar (default: stdin)")
	delta := fs.Int64("delta", 3600, "aggregation period in seconds")
	directed := fs.Bool("directed", false, "respect link orientation")
	dump := fs.Bool("dump", false, "dump snapshot edge lists instead of statistics")
	trips := fs.Bool("trips", false, "also report minimal-trip statistics")
	metricsFlag := fs.String("metrics", "",
		"comma-separated snapshot metrics computed at -delta in one engine pass: "+
			"degree,clustering,components,coreness,weighted (see docs/METRICS.md)")
	var workers, maxInFlight, laneWidth int
	cli.BindEngine(fs, &workers, &maxInFlight)
	cli.BindLaneWidth(fs, &laneWidth)
	engineStats := fs.Bool("engine-stats", false,
		"print the engine's instrumentation after the -metrics pass (no engine runs without -metrics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	metrics, err := parseSnapshotMetrics(*metricsFlag)
	if err != nil {
		return err
	}

	var r io.Reader = stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	s := repro.NewStream()
	if err := s.ReadAny(r); err != nil {
		return err
	}
	if s.NumEvents() == 0 {
		return fmt.Errorf("no events read")
	}
	g, err := series.Aggregate(s, *delta, *directed)
	if err != nil {
		return err
	}

	if *dump {
		w := bufio.NewWriter(stdout)
		defer w.Flush()
		for _, win := range g.Windows {
			fmt.Fprintf(w, "# window %d [%d, %d)\n", win.K, g.WindowStart(win.K), g.WindowEnd(win.K))
			for _, e := range win.Edges {
				fmt.Fprintf(w, "%s %s\n", s.NodeName(e.U), s.NodeName(e.V))
			}
		}
		return nil
	}

	st, err := g.ComputeStats()
	if err != nil {
		return err
	}
	rows := [][]string{
		{"windows (total)", fmt.Sprintf("%d", st.NumWindows)},
		{"windows (non-empty)", fmt.Sprintf("%d", st.NonEmptyWindows)},
		{"edges (deduplicated)", fmt.Sprintf("%d", st.TotalEdges)},
		{"mean density", fmt.Sprintf("%.6g", st.MeanDensity)},
		{"mean degree", fmt.Sprintf("%.4g", st.MeanDegree)},
		{"mean non-isolated vertices", fmt.Sprintf("%.4g", st.MeanNonIsolated)},
		{"mean largest component", fmt.Sprintf("%.4g", st.MeanLargestComp)},
	}
	fmt.Fprint(stdout, textplot.Table([]string{"statistic", "value"}, rows))

	if len(metrics) > 0 {
		// A single-∆ plan: the candidate grid is {-delta}, so every
		// curve has exactly one point — the metric's value on this
		// aggregation.
		plan, err := repro.NewAnalysis(s,
			repro.WithDirected(*directed),
			repro.WithWorkers(workers),
			repro.WithMaxInFlight(maxInFlight),
			repro.WithLaneWidth(laneWidth),
			repro.WithGrid(*delta),
			repro.WithMetrics(metrics...),
		)
		if err != nil {
			return err
		}
		rep, err := plan.Run(context.Background())
		if err != nil {
			return err
		}
		cli.SnapshotTables(stdout, rep.Snapshots())
		if *engineStats {
			fmt.Fprintf(stdout, "\n%s\n", cli.EngineStatsLine(rep.EngineStats()))
		}
	}

	if *trips {
		cfg := temporal.Config{N: g.N, Directed: *directed}
		occ := temporal.OccupanciesCSR(cfg, temporal.SeriesCSR(g))
		var sum float64
		ones := 0
		for _, o := range occ {
			sum += o
			if o == 1 {
				ones++
			}
		}
		fmt.Fprintf(stdout, "\nminimal trips: %d  mean occupancy: %.4f  occupancy=1: %.1f%%\n",
			len(occ), sum/float64(max(1, len(occ))), 100*float64(ones)/float64(max(1, len(occ))))
	}
	return nil
}

// parseSnapshotMetrics parses -metrics, rejecting non-snapshot metrics
// with a pointer at the sweeping commands.
func parseSnapshotMetrics(spec string) ([]repro.Metric, error) {
	if spec == "" {
		return nil, nil
	}
	ms, err := repro.ParseMetrics(spec)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		ok := false
		for _, a := range snapshotMetrics {
			if m == a {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("metric %q is not a snapshot metric; tsaggregate evaluates one ∆ — sweep metrics like %q belong to tsscale/tsvalidate", m, m)
		}
	}
	return ms, nil
}
