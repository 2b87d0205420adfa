package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/linkstream"
	"repro/internal/sweep"
)

// runSearch drives one scale search over s through RunScopes, as
// SaturationScale does, and returns its result with the run's engine
// counters accumulated over every pass.
func runSearch(t *testing.T, s *linkstream.Stream, opt Options) (Result, sweep.RunStats) {
	t.Helper()
	search, err := NewScaleSearch(opt)
	if err != nil {
		t.Fatal(err)
	}
	var st sweep.RunStats
	eng := opt.engineOptions()
	eng.Stats = &st
	scope := &Scope{Search: search}
	if err := RunScopes(context.Background(), s, eng, []*Scope{scope}); err != nil {
		t.Fatal(err)
	}
	return scope.Result, st
}

// TestSaturationScaleMatchesProtocolLoop pins SaturationScale's
// RunScopes drive against the bare Next/sweep.Run/Absorb protocol
// loop: bit-identical Results with and without refinement, for both
// refinement modes.
func TestSaturationScaleMatchesProtocolLoop(t *testing.T) {
	s := mixedStream(t, 7, 2, 3000, 2)
	for _, speculate := range []bool{false, true} {
		for _, refine := range []int{0, 4} {
			opt := Options{Grid: LogGrid(1, 3000, 10), Refine: refine, Speculate: speculate, Selectors: dist.AllSelectors()}
			want, err := SaturationScale(context.Background(), s, opt)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := NewScaleSearch(opt)
			if err != nil {
				t.Fatal(err)
			}
			for {
				grid, obs, ok := sc.Next()
				if !ok {
					break
				}
				if err := sweep.Run(context.Background(), s, grid, sweep.Options{}, obs); err != nil {
					t.Fatal(err)
				}
				if err := sc.Absorb(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := sc.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("speculate=%v refine=%d:\n got %+v\nwant %+v", speculate, refine, got, want)
			}
		}
	}
}

// TestScaleSearchSweepsEachDeltaOnce asserts the staged refinement
// never rebuilds an already-scored ∆: the total CSR builds of a refined
// SaturationScale equal the number of distinct points in its curve.
func TestScaleSearchSweepsEachDeltaOnce(t *testing.T) {
	s := mixedStream(t, 7, 2, 3000, 3)
	opt := Options{Grid: LogGrid(1, 3000, 8), Refine: 5}
	res, st := runSearch(t, s, opt)
	if st.Builds != int64(len(res.Points)) {
		t.Fatalf("built %d period CSRs for %d distinct scored deltas", st.Builds, len(res.Points))
	}
	if len(res.Points) <= len(opt.Grid) {
		t.Fatalf("refinement added no points (%d <= %d); workload does not exercise the second round",
			len(res.Points), len(opt.Grid))
	}
}

// TestScaleSearchProtocol covers the state machine's misuse errors and
// the request/absorb cycle.
func TestScaleSearchProtocol(t *testing.T) {
	if _, err := NewScaleSearch(Options{}); err == nil {
		t.Fatal("missing grid must error")
	}
	if _, err := NewScaleSearch(Options{Grid: []int64{0}}); err == nil {
		t.Fatal("non-positive delta must error")
	}
	if _, err := NewScaleSearch(Options{Grid: []int64{5}, HistogramBins: 8, Selectors: dist.AllSelectors()}); err == nil {
		t.Fatal("histogram mode with non-M-K selectors must error")
	}

	sc, err := NewScaleSearch(Options{Grid: []int64{2, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Absorb(); err == nil {
		t.Fatal("Absorb before Next must error")
	}
	if _, err := sc.Result(); err == nil {
		t.Fatal("Result before convergence must error")
	}
	grid, obs, ok := sc.Next()
	if !ok || len(grid) != 2 || obs == nil {
		t.Fatalf("Next: grid=%v ok=%v", grid, ok)
	}
	if _, _, ok := sc.Next(); ok {
		t.Fatal("second Next without Absorb must report ok=false")
	}
	s := mixedStream(t, 5, 2, 500, 4)
	if err := sweep.Run(context.Background(), s, grid, sweep.Options{}, obs); err != nil {
		t.Fatal(err)
	}
	if err := sc.Absorb(); err != nil {
		t.Fatal(err)
	}
	if !sc.Done() {
		t.Fatal("Refine=0 search must converge after one round")
	}
	res, err := sc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Gamma == 0 {
		t.Fatalf("result = %+v", res)
	}
}
