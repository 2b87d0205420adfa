package classic

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/sweep"
)

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

func TestCurveMonotoneTrends(t *testing.T) {
	// Section 3: when ∆ grows, density and connectedness increase
	// monotonically to their fully aggregated values, the distance in
	// hops decreases to 1 and the distance in absolute time increases.
	// Verify the endpoints and overall drift on a time-uniform stream.
	s := uniformStream(t, 8, 3, 10_000, 1)
	grid := []int64{1, 100, 1000, 10_000}
	obs := NewObserver()
	if err := sweep.Run(context.Background(), s, grid, sweep.Options{Workers: 2}, obs); err != nil {
		t.Fatal(err)
	}
	points := obs.Points()
	if len(points) != len(grid) {
		t.Fatalf("points = %d, want %d", len(points), len(grid))
	}
	first, last := points[0], points[len(points)-1]
	if first.MeanDensity >= last.MeanDensity {
		t.Fatalf("density should grow with delta: %v -> %v", first.MeanDensity, last.MeanDensity)
	}
	// Fully aggregated: one complete-ish snapshot, density near 1,
	// everyone non-isolated, one big component.
	if last.MeanNonIsolated != 8 {
		t.Fatalf("fully aggregated non-isolated = %v, want 8", last.MeanNonIsolated)
	}
	if last.MeanLargestComp != 8 {
		t.Fatalf("fully aggregated LCC = %v, want 8", last.MeanLargestComp)
	}
	// In a single-window series every trip takes exactly 1 window:
	// mean dtime = 1 and mean hops = 1.
	if last.MeanDistTime != 1 || last.MeanDistHops != 1 {
		t.Fatalf("fully aggregated distances = %+v", last)
	}
	if last.MeanDistAbsTime != float64(last.Delta) {
		t.Fatalf("abs time = %v, want %v", last.MeanDistAbsTime, float64(last.Delta))
	}
	if first.MeanDistHops <= last.MeanDistHops {
		t.Fatalf("hops should shrink with delta: %v -> %v", first.MeanDistHops, last.MeanDistHops)
	}
	if first.MeanDistAbsTime >= last.MeanDistAbsTime {
		t.Fatalf("absolute time should grow with delta: %v -> %v", first.MeanDistAbsTime, last.MeanDistAbsTime)
	}
}

func TestAtConsistency(t *testing.T) {
	s := uniformStream(t, 6, 2, 1000, 2)
	p, err := At(s, 50, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Delta != 50 {
		t.Fatalf("Delta = %d", p.Delta)
	}
	if p.FinitePairs <= 0 {
		t.Fatal("expected finite pairs")
	}
	if p.MeanDistAbsTime != 50*p.MeanDistTime {
		t.Fatalf("abs time %v != 50 * %v", p.MeanDistAbsTime, p.MeanDistTime)
	}
	if p.MeanDegree <= 0 || p.MeanDensity <= 0 {
		t.Fatalf("degenerate stats: %+v", p)
	}
}

func TestCurveErrors(t *testing.T) {
	empty := linkstream.New()
	if err := sweep.Run(context.Background(), empty, []int64{1}, sweep.Options{}, NewObserver()); err == nil {
		t.Fatal("empty stream should error")
	}
	s := uniformStream(t, 4, 1, 100, 3)
	if err := sweep.Run(context.Background(), s, nil, sweep.Options{}, NewObserver()); err == nil {
		t.Fatal("empty grid should error")
	}
	if _, err := At(s, 0, Options{}); err == nil {
		t.Fatal("delta 0 should error")
	}
}
