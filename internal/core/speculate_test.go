package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/sweep"
)

// runSearch drives a SaturationScale search over the stream and returns
// the result plus the number of engine passes it took.
func runSearch(t *testing.T, s *linkstream.Stream, opt Options) (Result, int) {
	t.Helper()
	passes := 0
	res, err := SaturationScaleWith(context.Background(), opt, func(grid []int64, obs sweep.Observer) error {
		passes++
		return sweep.Run(context.Background(), s, grid, sweep.Options{}, obs)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, passes
}

// TestSpeculativeMatchesSerialBisection pins the tentpole guarantee of
// the speculative mode: serial bracket bisection and speculative
// bisection sweep the same ∆ sequence and return bit-identical Results
// — speculation only halves the number of engine passes spent on
// refinement.
func TestSpeculativeMatchesSerialBisection(t *testing.T) {
	for seed := int64(2); seed <= 5; seed++ {
		s := mixedStream(t, 7, 2, 3000, seed)
		for _, refine := range []int{1, 3, 6} {
			base := Options{Grid: LogGrid(1, 3000, 9), Refine: refine}

			serialOpt := base
			serialOpt.Bisect = true
			serial, serialPasses := runSearch(t, s, serialOpt)

			specOpt := base
			specOpt.Speculate = true
			spec, specPasses := runSearch(t, s, specOpt)

			if !reflect.DeepEqual(spec, serial) {
				t.Fatalf("seed=%d refine=%d:\n speculative %+v\n serial      %+v", seed, refine, spec, serial)
			}
			if specPasses > serialPasses {
				t.Fatalf("seed=%d refine=%d: speculative took %d passes, serial %d", seed, refine, specPasses, serialPasses)
			}
			if serialPasses > specPasses && specPasses < 2 {
				t.Fatalf("seed=%d refine=%d: refinement ran (%d serial passes) but speculation stayed at %d",
					seed, refine, serialPasses, specPasses)
			}
		}
	}
}

// TestSpeculativeSweepsEachDeltaOnce extends the builds == points
// invariant to both bisection modes: every distinct ∆ of the final
// curve is built exactly once, losing speculative midpoints included.
func TestSpeculativeSweepsEachDeltaOnce(t *testing.T) {
	s := mixedStream(t, 7, 2, 3000, 3)
	for _, speculate := range []bool{false, true} {
		opt := Options{Grid: LogGrid(1, 3000, 8), Refine: 5, Bisect: true, Speculate: speculate}
		var st sweep.RunStats
		res, err := SaturationScaleWith(context.Background(), opt, statsRunner(s, opt, &st))
		if err != nil {
			t.Fatal(err)
		}
		if st.Builds != int64(len(res.Points)) {
			t.Fatalf("speculate=%v: built %d period CSRs for %d distinct scored deltas", speculate, st.Builds, len(res.Points))
		}
		if len(res.Points) <= len(opt.Grid) {
			t.Fatalf("speculate=%v: bisection added no points (%d <= %d)", speculate, len(res.Points), len(opt.Grid))
		}
	}
}

// TestBisectRoundsBounded pins the Refine semantics of bisection mode:
// each round stages at most two fresh midpoints, so the curve grows by
// at most 2*Refine points over the initial grid, and Refine=0 disables
// refinement entirely.
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
