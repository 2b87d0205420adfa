package repro

import (
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/synth"
)

// End-to-end integration: generate a workload, run the full pipeline
// through the public facade, and check the paper's qualitative story.

func uniformWorkload(t testing.TB) *Stream {
	t.Helper()
	s, err := synth.TimeUniform(synth.TimeUniformConfig{
		Nodes: 20, LinksPerPair: 8, T: 50_000, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPipelineEndToEnd(t *testing.T) {
	s := uniformWorkload(t)

	res, ok := runPlan(t, s, WithGrid(LogGrid(1, 50_000, 20)...), WithRefine(4)).Scale()
	if !ok {
		t.Fatal("plan reported no scale")
	}
	if res.Gamma <= 1 || res.Gamma >= 50_000 {
		t.Fatalf("gamma = %d not interior", res.Gamma)
	}

	// Occupancy distribution: spread at gamma, degenerate at T.
	atGamma, err := OccupancyDistribution(s, res.Gamma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	atT, err := OccupancyDistribution(s, 50_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if atGamma.MKProximity() <= atT.MKProximity() {
		t.Fatalf("proximity at gamma (%v) should beat proximity at T (%v)",
			atGamma.MKProximity(), atT.MKProximity())
	}
	if atT.Mean() != 1 {
		t.Fatalf("fully aggregated mean occupancy = %v, want 1", atT.Mean())
	}

	// Aggregation and trips through the facade.
	g, err := Aggregate(s, res.Gamma, false)
	if err != nil {
		t.Fatal(err)
	}
	trips := MinimalTrips(g)
	if len(trips) == 0 {
		t.Fatal("no minimal trips at gamma")
	}
	for _, tr := range trips[:min(100, len(trips))] {
		if o := tr.Occupancy(); o <= 0 || o > 1 {
			t.Fatalf("occupancy %v out of range", o)
		}
	}

	// Classical properties drift monotonically (Figure 2 story).
	classic := runPlan(t, s, WithMetrics(MetricClassic), WithGrid(10, 50_000)).Classic()
	if classic[0].MeanDensity >= classic[1].MeanDensity {
		t.Fatal("density should grow with delta")
	}

	// Validation measures (Figure 8 story).
	loss := runPlan(t, s, WithMetrics(MetricTransitionLoss), WithGrid(10, res.Gamma, 50_000)).TransitionLoss()
	if !(loss[0].Lost < loss[1].Lost && loss[1].Lost < loss[2].Lost) {
		t.Fatalf("loss not increasing: %+v", loss)
	}
	elong := runPlan(t, s, WithMetrics(MetricElongation), WithGrid(10, res.Gamma)).Elongation()
	if elong[0].MeanElongation > elong[1].MeanElongation {
		t.Fatalf("elongation should rise towards gamma: %+v", elong)
	}
}

func TestStreamMinimalTripsFacade(t *testing.T) {
	s := NewStream()
	for _, e := range []struct {
		u, v string
		t    int64
	}{{"a", "b", 1}, {"b", "c", 2}} {
		if err := s.Add(e.u, e.v, e.t); err != nil {
			t.Fatal(err)
		}
	}
	trips := StreamMinimalTrips(s, false)
	// a->b, b->a, b->c, c->b single links plus the a->c relay (c->a is
	// impossible: b->a would have to happen after t = 2).
	if len(trips) != 5 {
		t.Fatalf("trips = %d (%v), want 5", len(trips), trips)
	}
	directed := StreamMinimalTrips(s, true)
	if len(directed) != 3 { // a->b, b->c, a->c
		t.Fatalf("directed trips = %d (%v), want 3", len(directed), directed)
	}
}

func TestSelectorsFacade(t *testing.T) {
	if n := len(AllSelectors()); n != 5 {
		t.Fatalf("AllSelectors = %d, want 5", n)
	}
	if g := LinearGrid(0, 10, 3); len(g) != 3 {
		t.Fatalf("LinearGrid = %v", g)
	}
}

// The figure harness runs end to end under the quick profile — this is
// the repository's smoke test for deliverable (d).
func TestFigureHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness in -short mode")
	}
	var sb strings.Builder
	if err := figures.Run("fig6a", figures.QuickProfile(), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "saturation scale") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestForwardQueriesFacade(t *testing.T) {
	s := NewStream()
	for _, e := range []struct {
		u, v string
		t    int64
	}{{"a", "b", 0}, {"b", "c", 10}, {"c", "d", 20}} {
		if err := s.Add(e.u, e.v, e.t); err != nil {
			t.Fatal(err)
		}
	}
	g, err := Aggregate(s, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.NodeID("a")
	d, _ := s.NodeID("d")
	arr, hops := EarliestArrivals(g, a, 0)
	if arr[d] != 2 || hops[d] != 3 {
		t.Fatalf("series arr[d]=%d hops=%d, want 2,3", arr[d], hops[d])
	}
	sArr, sHops := StreamEarliestArrivals(s, a, 0, false)
	if sArr[d] != 20 || sHops[d] != 3 {
		t.Fatalf("stream arr[d]=%d hops=%d, want 20,3", sArr[d], sHops[d])
	}
	// All ordered pairs except those requiring travel against time.
	if got := ReachablePairs(g); got <= 0 {
		t.Fatalf("ReachablePairs = %d", got)
	}
	if Unreachable <= 0 {
		t.Fatal("Unreachable constant must be positive sentinel")
	}
}
