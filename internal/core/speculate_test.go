package core

import (
	"reflect"
	"testing"
)

// TestSpeculativeResultMatchesOnePass pins what speculative bisection
// returns: its curve is exactly one plain engine pass over the ∆ set it
// swept — no point is scored differently for having been requested in
// a later round — and γ is that curve's maximum. Each speculative round
// is one engine pass, so Refine+1 passes bound the whole search.
func TestSpeculativeResultMatchesOnePass(t *testing.T) {
	for seed := int64(2); seed <= 5; seed++ {
		s := mixedStream(t, 7, 2, 3000, seed)
		for _, refine := range []int{1, 3, 6} {
			opt := Options{Grid: LogGrid(1, 3000, 9), Refine: refine, Speculate: true}
			res, st := runSearch(t, s, opt)
			swept := make([]int64, len(res.Points))
			for i, p := range res.Points {
				swept[i] = p.Delta
			}
			want, err := sweepPoints(s, swept, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Points, want) {
				t.Fatalf("seed=%d refine=%d: speculative curve differs from one pass over its ∆ set:\n got %+v\nwant %+v",
					seed, refine, res.Points, want)
			}
			if best := want[Best(want, 0)]; res.Gamma != best.Delta || res.Score != best.Scores[0] {
				t.Fatalf("seed=%d refine=%d: γ=%d score=%v, curve maximum is ∆=%d score=%v",
					seed, refine, res.Gamma, res.Score, best.Delta, best.Scores[0])
			}
			if st.Passes > int64(refine+1) {
				t.Fatalf("seed=%d refine=%d: %d engine passes, bound is %d", seed, refine, st.Passes, refine+1)
			}
		}
	}
}

// TestSpeculativeSweepsEachDeltaOnce extends the builds == points
// invariant to speculative bisection: every distinct ∆ of the final
// curve is built exactly once, losing midpoints included.
func TestSpeculativeSweepsEachDeltaOnce(t *testing.T) {
	s := mixedStream(t, 7, 2, 3000, 3)
	opt := Options{Grid: LogGrid(1, 3000, 8), Refine: 5, Speculate: true}
	res, st := runSearch(t, s, opt)
	if st.Builds != int64(len(res.Points)) {
		t.Fatalf("built %d period CSRs for %d distinct scored deltas", st.Builds, len(res.Points))
	}
	if len(res.Points) <= len(opt.Grid) {
		t.Fatalf("bisection added no points (%d <= %d)", len(res.Points), len(opt.Grid))
	}
}

// TestBisectRoundsBounded pins the Refine semantics of speculative
// bisection: each round stages at most two fresh midpoints, so the
// curve grows by at most 2*Refine points over the initial grid, and
// Refine=0 disables refinement entirely.
func TestBisectRoundsBounded(t *testing.T) {
	s := mixedStream(t, 7, 2, 3000, 6)
	grid := LogGrid(1, 3000, 9)
	for _, refine := range []int{0, 2, 4} {
		res, _ := runSearch(t, s, Options{Grid: grid, Refine: refine, Speculate: true})
		if extra := len(res.Points) - len(grid); extra > 2*refine {
			t.Fatalf("refine=%d: bisection added %d points, bound is %d", refine, extra, 2*refine)
		}
		if refine == 0 && len(res.Points) != len(grid) {
			t.Fatalf("refine=0 must not refine: %d points for a %d-point grid", len(res.Points), len(grid))
		}
	}
}

// TestGeoMid pins the midpoint helper's clamping.
func TestGeoMid(t *testing.T) {
	for _, tc := range []struct{ a, b, want int64 }{
		{1, 100, 10},
		{10, 1000, 100},
		{5, 7, 6},
		{5, 6, 5}, // no interior point: endpoint, seen-filtered by caller
		{5, 5, 5}, // degenerate bracket
		{1, 2, 1}, // no interior point
		{2, 9, 4}, // sqrt(18) ≈ 4.24
		{100, 101, 100},
	} {
		if got := geoMid(tc.a, tc.b); got != tc.want {
			t.Fatalf("geoMid(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := geoMid(tc.a, tc.b); got < tc.a || got > tc.b {
			t.Fatalf("geoMid(%d, %d) = %d out of bracket", tc.a, tc.b, got)
		}
	}
}
