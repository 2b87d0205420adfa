package classic

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/sweep"
)

func mixedStream(t testing.TB, n, perPair int, T int64, seed int64) *linkstream.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := linkstream.New()
	s.EnsureNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for k := 0; k < perPair; k++ {
				a, b := int32(u), int32(v)
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
				if err := s.AddID(a, b, rng.Int63n(T)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

// TestCurveMatchesReference asserts the engine Observer reproduces
// the seed per-∆ implementation (Series aggregation + snapshot stats +
// dedicated distance pass) exactly, field by field, on seeded
// workloads, directed and undirected.
func TestCurveMatchesReference(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := mixedStream(t, 7, 2, 2500, seed)
			grid := []int64{1, 13, 99, 800, 2500}
			want, err := CurveReference(s, grid, Options{Directed: directed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				obs := NewObserver()
				if err := sweep.Run(context.Background(), s, grid, sweep.Options{Directed: directed, Workers: workers, MaxInFlight: 2}, obs); err != nil {
					t.Fatal(err)
				}
				got := obs.Points()
				if len(got) != len(want) {
					t.Fatalf("got %d points, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("directed=%v seed=%d workers=%d point %d:\n got %+v\nwant %+v",
							directed, seed, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}
