package validate

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

func chainStream(t *testing.T) *linkstream.Stream {
	t.Helper()
	// A relay chain: a-b at 10, b-c at 20, c-d at 30 — two shortest
	// transitions (a,c,10,20) and (b,d,20,30) plus longer trips.
	s := linkstream.New()
	for _, e := range []struct {
		u, v string
		t    int64
	}{{"a", "b", 10}, {"b", "c", 20}, {"c", "d", 30}} {
		if err := s.Add(e.u, e.v, e.t); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func uniformStream(t testing.TB, n, perPair int, T int64, seed int64) *linkstream.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := linkstream.New()
	s.EnsureNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for k := 0; k < perPair; k++ {
				if err := s.AddID(int32(u), int32(v), rng.Int63n(T)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

func TestTransitionLossChain(t *testing.T) {
	s := chainStream(t)
	obs := NewTransitionLossObserver()
	if err := sweep.Run(context.Background(), s, []int64{1, 15, 100}, sweep.Options{Workers: 1}, obs); err != nil {
		t.Fatal(err)
	}
	points := obs.Points()
	if points[0].Total != 2 {
		t.Fatalf("total transitions = %d, want 2", points[0].Total)
	}
	// ∆ = 1: each event in its own window, nothing lost.
	if points[0].Lost != 0 {
		t.Fatalf("∆=1 lost = %v, want 0", points[0].Lost)
	}
	// ∆ = 15 with origin 10: windows [10,25) and [25,40): the
	// transition (a,c,10,20) collapses, (b,d,20,30) survives.
	if points[1].Lost != 0.5 {
		t.Fatalf("∆=15 lost = %v, want 0.5", points[1].Lost)
	}
	// ∆ = 100: everything inside one window.
	if points[2].Lost != 1 {
		t.Fatalf("∆=100 lost = %v, want 1", points[2].Lost)
	}
}

func TestTransitionLossMonotoneOnAlignedGrid(t *testing.T) {
	s := uniformStream(t, 6, 3, 4096, 1)
	grid := []int64{1, 2, 4, 8, 16, 64, 256, 4096}
	obs := NewTransitionLossObserver()
	if err := sweep.Run(context.Background(), s, grid, sweep.Options{Workers: 1}, obs); err != nil {
		t.Fatal(err)
	}
	points := obs.Points()
	for i := 1; i < len(points); i++ {
		if points[i].Lost < points[i-1].Lost {
			t.Fatalf("loss not monotone on aligned grid: %v then %v",
				points[i-1], points[i])
		}
	}
	if points[len(points)-1].Lost != 1 {
		t.Fatalf("full aggregation should lose all transitions: %+v", points[len(points)-1])
	}
}

func TestElongationChain(t *testing.T) {
	s := chainStream(t)
	// ∆ = 11, origin 10: windows [10,21), [21,32), [32,43). Events land
	// in windows 0 (t=10 and t=20), 0... t=20 -> (20-10)/11 = 0; t=30 ->
	// window 1. Series: W0 has edges {a,b},{b,c}; W1 has {c,d}.
	// Series minimal trips spanning >= 2 windows include b->d (dep 0
	// arr 1, via c) and a->... a->c impossible (same window), a->d?
	// a-b W0 then? b's next link is in W0 only, c-d W1: a cannot hop
	// twice in W0... so a->d unreachable. For b->d: real interval
	// [10, 32], stream trip b->d: b-c at 20, c-d at 30 -> duration 10.
	// Elongation = (1-0+1)*11 / 10 = 2.2.
	obs := NewElongationObserver()
	if err := sweep.Run(context.Background(), s, []int64{11}, sweep.Options{Workers: 1}, obs); err != nil {
		t.Fatal(err)
	}
	points := obs.Points()
	p := points[0]
	if p.Unmatched != 0 {
		t.Fatalf("unmatched trips: %+v", p)
	}
	found := false
	if p.Trips > 0 {
		found = true
	}
	if !found {
		t.Fatalf("no multi-window trips: %+v", p)
	}
	const want = 2.2
	if p.MeanElongation < want-1e-9 || p.MeanElongation > want+1e-9 {
		t.Fatalf("mean elongation = %v, want %v", p.MeanElongation, want)
	}
}

func TestElongationNearOneAtFineScales(t *testing.T) {
	// Sparse stream: trip durations are large, so the +1 window of
	// Definition 8 is negligible and elongation sits essentially at 1
	// when ∆ equals the resolution.
	s := uniformStream(t, 6, 4, 500_000, 2)
	obs := NewElongationObserver()
	if err := sweep.Run(context.Background(), s, []int64{1, 2}, sweep.Options{Workers: 2}, obs); err != nil {
		t.Fatal(err)
	}
	points := obs.Points()
	for _, p := range points {
		if p.Unmatched != 0 {
			t.Fatalf("unmatched trips at ∆=%d: %+v", p.Delta, p)
		}
		if p.Trips > 0 && (p.MeanElongation < 1 || p.MeanElongation > 1.1) {
			t.Fatalf("∆=%d elongation = %v, want ~1", p.Delta, p.MeanElongation)
		}
	}
}

func TestElongationGrowsWithDelta(t *testing.T) {
	s := uniformStream(t, 8, 3, 10_000, 3)
	obs := NewElongationObserver()
	if err := sweep.Run(context.Background(), s, []int64{2, 1500}, sweep.Options{Workers: 2}, obs); err != nil {
		t.Fatal(err)
	}
	points := obs.Points()
	if len(points) == 2 && points[0].Trips > 0 && points[1].Trips > 0 {
		if points[1].MeanElongation <= points[0].MeanElongation {
			t.Fatalf("elongation should grow: %v -> %v",
				points[0].MeanElongation, points[1].MeanElongation)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	empty := linkstream.New()
	if err := sweep.Run(context.Background(), empty, []int64{1}, sweep.Options{}, NewTransitionLossObserver()); err == nil {
		t.Fatal("empty stream should error")
	}
	if err := sweep.Run(context.Background(), empty, []int64{1}, sweep.Options{}, NewElongationObserver()); err == nil {
		t.Fatal("empty stream should error")
	}
	s := chainStream(t)
	if err := sweep.Run(context.Background(), s, nil, sweep.Options{}, NewTransitionLossObserver()); err == nil {
		t.Fatal("empty grid should error")
	}
	if err := sweep.Run(context.Background(), s, nil, sweep.Options{}, NewElongationObserver()); err == nil {
		t.Fatal("empty grid should error")
	}
}

func TestPairIndexQueries(t *testing.T) {
	s := chainStream(t)
	cfg := temporal.Config{N: s.NumNodes(), Directed: false, Workers: 1}
	idx := buildPairIndex(s.NumNodes(), temporal.CollectTrips(cfg, temporal.StreamLayers(s, false)))
	a, _ := s.NodeID("a")
	c, _ := s.NodeID("c")
	// a->c minimal trip is (10, 20): duration 10.
	d, ok := idx.minDurationWithin(a, c, 0, 100)
	if !ok || d != 10 {
		t.Fatalf("minDurationWithin(a,c) = %d,%v want 10,true", d, ok)
	}
	// Interval too tight on the right: no trip.
	if _, ok := idx.minDurationWithin(a, c, 0, 15); ok {
		t.Fatal("interval [0,15] should contain no a->c trip")
	}
	// Interval starting after the departure: no trip.
	if _, ok := idx.minDurationWithin(a, c, 15, 100); ok {
		t.Fatal("interval [15,100] should contain no a->c trip")
	}
	// Unknown pair.
	if _, ok := idx.minDurationWithin(99, 98, 0, 100); ok {
		t.Fatal("unknown pair should report no trip")
	}
}
