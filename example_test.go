package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// The Figure 1 stream of the paper: nodes a..e, nine events over
// eleven time units.
func figure1() *repro.Stream {
	s := repro.NewStream()
	events := []struct {
		u, v string
		t    int64
	}{
		{"e", "d", 1}, {"a", "b", 2}, {"d", "c", 4},
		{"c", "b", 5}, {"e", "a", 6}, {"a", "b", 8},
		{"d", "e", 9}, {"c", "b", 10}, {"b", "a", 11},
	}
	for _, e := range events {
		if err := s.Add(e.u, e.v, e.t); err != nil {
			log.Fatal(err)
		}
	}
	return s
}

// Aggregating the paper's Figure 1 stream with ∆ = 4 yields the three
// snapshots of the figure.
func ExampleAggregate() {
	g, err := repro.Aggregate(figure1(), 4, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("windows:", g.NumWindows)
	fmt.Println("edges per window:",
		len(g.Windows[0].Edges), len(g.Windows[1].Edges), len(g.Windows[2].Edges))
	// Output:
	// windows: 3
	// edges per window: 3 3 3
}

// NewAnalysis is the package's single execution path: functional
// options freeze an immutable Plan, and Plan.Run executes everything
// the plan requests — here the occupancy method plus the Section 8
// transition-loss curve — as one fused engine pass, returning a typed
// Report.
func ExampleNewAnalysis() {
	plan, err := repro.NewAnalysis(figure1(),
		repro.WithMetrics(repro.MetricOccupancy, repro.MetricTransitionLoss),
		repro.WithGrid(1, 4, 11),
	)
	if err != nil {
		log.Fatal(err)
	}
	report, err := plan.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gamma:", report.Gamma())
	fmt.Println("periods scored:", len(report.Occupancy()))
	fmt.Println("transitions in the stream:", report.TransitionLoss()[0].Total)
	// Output:
	// gamma: 1
	// periods scored: 3
	// transitions in the stream: 11
}

// WithObservers computes several metrics in one fused engine pass:
// each candidate period is aggregated and swept exactly once, and every
// registered observer scores that single sweep.
func ExampleWithObservers() {
	occ := repro.NewOccupancyObserver(nil)
	loss := repro.NewTransitionLossObserver()
	dist := repro.NewDistanceObserver()
	plan, err := repro.NewAnalysis(figure1(),
		repro.WithMetrics(),
		repro.WithGrid(1, 4, 11),
		repro.WithMaxInFlight(2),
		repro.WithObservers(occ, loss, dist))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := plan.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("periods scored:", len(occ.Points()))
	fmt.Println("transitions in the stream:", loss.Points()[0].Total)
	fmt.Printf("mean dtime at delta=4: %.2f windows\n", dist.Points()[1].MeanTime)
	// Output:
	// periods scored: 3
	// transitions in the stream: 11
	// mean dtime at delta=4: 1.65 windows
}

// Minimal trips capture the propagation structure; their occupancy
// rates are the core quantity of the occupancy method.
func ExampleMinimalTrips() {
	g, err := repro.Aggregate(figure1(), 4, false)
	if err != nil {
		log.Fatal(err)
	}
	trips := repro.MinimalTrips(g)
	multiWindow := 0
	for _, tr := range trips {
		if tr.Arr > tr.Dep {
			multiWindow++
		}
	}
	fmt.Println("minimal trips:", len(trips))
	fmt.Println("spanning several windows:", multiWindow)
	// Output:
	// minimal trips: 28
	// spanning several windows: 10
}

// The occupancy distribution collapses onto 1 when the whole stream is
// aggregated into a single graph — the limit in which all temporal
// information is lost.
func ExampleOccupancyDistribution() {
	sample, err := repro.OccupancyDistribution(figure1(), 1000, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trips: %d, mean occupancy: %.1f\n", sample.N(), sample.Mean())
	// Output:
	// trips: 10, mean occupancy: 1.0
}

// EarliestArrivals answers spreading queries on the aggregated series:
// when does information leaving a node reach everyone else?
func ExampleEarliestArrivals() {
	s := figure1()
	g, err := repro.Aggregate(s, 4, false)
	if err != nil {
		log.Fatal(err)
	}
	e, _ := s.NodeID("e")
	b, _ := s.NodeID("b")
	arr, hops := repro.EarliestArrivals(g, e, 0)
	fmt.Printf("e reaches b in window %d after %d hops\n", arr[b], hops[b])
	// Output:
	// e reaches b in window 2 after 2 hops
}

// The snapshot metrics judge a time scale by the stability of
// structural properties: WithMetrics selects them by enum value, the
// Report returns one generic MetricCurve per metric with the values of
// every series across the candidate grid.
func ExampleWithMetrics() {
	plan, err := repro.NewAnalysis(figure1(),
		repro.WithMetrics(repro.MetricDegree, repro.MetricComponents),
		repro.WithGrid(1, 4, 11),
	)
	if err != nil {
		log.Fatal(err)
	}
	report, err := plan.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, curve := range report.Snapshots() {
		fmt.Println(curve.Metric, "series:", len(curve.Series), "deltas:", curve.Deltas)
	}
	// Output:
	// degree series: 3 deltas: [1 4 11]
	// components series: 2 deltas: [1 4 11]
}

// Report.Snapshot fetches one metric's curve by name; Curve.Get one
// series of it. Each series carries a stability score in [0, 1]: how
// close the values stay to a plateau across aggregation periods.
func ExampleReport_Snapshot() {
	plan, err := repro.NewAnalysis(figure1(),
		repro.WithMetrics(repro.MetricDegree),
		repro.WithGrid(1, 4, 11),
	)
	if err != nil {
		log.Fatal(err)
	}
	report, err := plan.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	curve, ok := report.Snapshot("degree")
	if !ok {
		log.Fatal("degree curve missing")
	}
	mean, _ := curve.Get("mean_degree")
	for i, delta := range curve.Deltas {
		fmt.Printf("delta %2d: mean degree %.2f\n", delta, mean.Values[i])
	}
	fmt.Printf("stability in [0, 1]: %v\n", mean.Stability >= 0 && mean.Stability <= 1)
	// Output:
	// delta  1: mean degree 0.33
	// delta  4: mean degree 1.20
	// delta 11: mean degree 2.00
	// stability in [0, 1]: true
}

// MetricWeighted is the weighted aggregation of GraphTempo/pyTempNet
// (AggregateNet): each window's edges weighted by how many stream
// events collapsed onto them. The total contact count is invariant in
// ∆ — every event lands in exactly one window at any period.
func ExampleMetricWeighted() {
	plan, err := repro.NewAnalysis(figure1(),
		repro.WithMetrics(repro.MetricWeighted),
		repro.WithGrid(4, 11),
	)
	if err != nil {
		log.Fatal(err)
	}
	report, err := plan.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	curve, _ := report.Snapshot("weighted")
	meanW, _ := curve.Get("mean_weight")
	maxW, _ := curve.Get("max_weight")
	for i, delta := range curve.Deltas {
		fmt.Printf("delta %2d: mean weight %.2f, max weight %.0f\n", delta, meanW.Values[i], maxW.Values[i])
	}
	// Output:
	// delta  4: mean weight 1.00, max weight 1
	// delta 11: mean weight 1.80, max weight 3
}
