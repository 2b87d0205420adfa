package sweep

import (
	"context"

	"reflect"
	"testing"
)

// TestWindowedDedupCoincidingJobs pins the (window, ∆) dedup: two
// segments selecting the same event window with the same grid build
// each period's CSR exactly once, and both receive bit-identical
// products.
func TestWindowedDedupCoincidingJobs(t *testing.T) {
	s := seededStream(t, 8, 3, 4000, 21)
	t0, t1, _ := s.Span()
	grid := []int64{3, 40, 700, 4000}
	a := newProbe(allNeeds())
	b := newProbe(allNeeds())
	var st RunStats
	cs := checkContracts(t, a, b)
	err := RunWindowed(context.Background(), s, Options{Workers: 3, MaxInFlight: 2, Stats: &st},
		SegmentObserver{Grid: grid, Observers: []Observer{cs[0]}},                         // whole stream, zero window
		SegmentObserver{Start: t0, End: t1 + 1, Grid: grid, Observers: []Observer{cs[1]}}, // same events, explicit window
	)
	if err != nil {
		t.Fatal(err)
	}
	verifyAll(cs)
	if st.Builds != int64(len(grid)) {
		t.Fatalf("coinciding segments built %d CSRs, want %d (one per distinct (window, delta))", st.Builds, len(grid))
	}
	if st.Dedups != int64(len(grid)) {
		t.Fatalf("Dedups = %d, want %d", st.Dedups, len(grid))
	}
	if st.StreamBuilds != 1 {
		t.Fatalf("StreamBuilds = %d, want 1 (shared raw-stream enumeration)", st.StreamBuilds)
	}
	for i := range grid {
		pa, pb := a.periods[i], b.periods[i]
		if pa == nil || pb == nil {
			t.Fatalf("period %d not routed to both segments", i)
		}
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("period %d products diverge between coinciding segments:\n%+v\n%+v", i, pa, pb)
		}
	}
	if !sameTripMultiset(a.streamTrips, b.streamTrips) {
		t.Fatal("coinciding segments should share the stream trip enumeration")
	}
}

// TestWindowedDedupPartialOverlap checks that only the coinciding grid
// entries are deduplicated and that results still match a plain Run per
// segment.
func TestWindowedDedupPartialOverlap(t *testing.T) {
	s := seededStream(t, 7, 2, 2000, 22)
	gridA := []int64{5, 60}
	gridB := []int64{60, 800}
	a := newProbe(allNeeds())
	b := newProbe(allNeeds())
	var st RunStats
	cs := checkContracts(t, a, b)
	err := RunWindowed(context.Background(), s, Options{Workers: 2, MaxInFlight: 2, Stats: &st},
		SegmentObserver{Grid: gridA, Observers: []Observer{cs[0]}},
		SegmentObserver{Grid: gridB, Observers: []Observer{cs[1]}},
	)
	if err != nil {
		t.Fatal(err)
	}
	verifyAll(cs)
	if st.Builds != 3 {
		t.Fatalf("built %d CSRs, want 3 (grids {5,60} and {60,800} share delta 60)", st.Builds)
	}
	if st.Dedups != 1 {
		t.Fatalf("Dedups = %d, want 1", st.Dedups)
	}
	for si, got := range []*probe{a, b} {
		grid := gridA
		if si == 1 {
			grid = gridB
		}
		want := newProbe(allNeeds())
		if err := Run(context.Background(), s, grid, Options{Workers: 2}, want); err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			if !reflect.DeepEqual(got.periods[i], want.periods[i]) {
				t.Fatalf("segment %d period %d diverges from its solo Run:\n%+v\n%+v",
					si, i, got.periods[i], want.periods[i])
			}
		}
	}
}

// TestWindowedNoDedupAcrossWindows checks distinct event windows never
// share a period job even with equal grids.
func TestWindowedNoDedupAcrossWindows(t *testing.T) {
	s := seededStream(t, 7, 3, 4000, 23)
	grid := []int64{7, 70}
	a := newProbe(Needs{Trips: true, StreamTripRuns: true})
	b := newProbe(Needs{Trips: true, StreamTripRuns: true})
	var st RunStats
	cs := checkContracts(t, a, b)
	err := RunWindowed(context.Background(), s, Options{Workers: 2, MaxInFlight: 2, Stats: &st},
		SegmentObserver{Start: 0, End: 2000, Grid: grid, Observers: []Observer{cs[0]}},
		SegmentObserver{Start: 2000, End: 4000, Grid: grid, Observers: []Observer{cs[1]}},
	)
	if err != nil {
		t.Fatal(err)
	}
	verifyAll(cs)
	if st.Builds != int64(2*len(grid)) {
		t.Fatalf("built %d CSRs, want %d (distinct windows must not dedup)", st.Builds, 2*len(grid))
	}
	if st.Dedups != 0 {
		t.Fatalf("Dedups = %d, want 0", st.Dedups)
	}
	if st.StreamBuilds != 2 {
		t.Fatalf("StreamBuilds = %d, want 2 (one enumeration per distinct window)", st.StreamBuilds)
	}
}
