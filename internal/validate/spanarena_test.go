package validate

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sweep"
	"repro/internal/temporal"
)

// randomTrips builds a random trip population over n node ids (capped
// at 16 sources/destinations so pairs stay dense while the id space —
// and the arena's destOff table — can be large).
func randomTrips(n int, seed int64) []temporal.Trip {
	rng := rand.New(rand.NewSource(seed))
	small := n
	if small > 16 {
		small = 16
	}
	var trips []temporal.Trip
	for u := 0; u < small; u++ {
		for v := 0; v < small; v++ {
			if u == v || rng.Intn(3) == 0 {
				continue
			}
			k := 1 + rng.Intn(4)
			dep := int64(1000)
			for i := 0; i < k; i++ {
				dep -= int64(1 + rng.Intn(50))
				trips = append(trips, temporal.Trip{
					U: int32(u), V: int32(v),
					Dep: dep, Arr: dep + int64(rng.Intn(20)),
					Hops: int32(1 + rng.Intn(3)),
				})
			}
		}
	}
	return trips
}

// TestSpanArenaMatchesPairIndex decodes every destination region of the
// delta-encoded arena and requires exactly the integer spans the eager
// flat/map pair index holds — for small and large node counts, with
// the spill shelf off and forced on after every run (cap 1 byte).
func TestSpanArenaMatchesPairIndex(t *testing.T) {
	for _, n := range []int{1, 5, 12, maxFlatPairNodes + 1} {
		for _, spillCap := range []int64{0, 1, 512} {
			trips := randomTrips(n, int64(n))
			want := buildPairIndex(n, trips)

			a := newSpanArena(n, spillCap)
			dests, runs := destRuns(n, trips)
			for i := range dests {
				if err := a.addRun(dests[i], runs[i]); err != nil {
					t.Fatal(err)
				}
			}
			a.finish()
			if spillCap == 1 && len(trips) > 0 && a.spilled == 0 {
				t.Fatalf("n=%d: cap 1 never spilled", n)
			}

			ds := &destSpans{}
			for v := 0; v < n; v++ {
				if err := a.decodeDest(int32(v), ds); err != nil {
					t.Fatalf("n=%d cap=%d dest %d: %v", n, spillCap, v, err)
				}
				got := map[int32][]tripSpan{}
				for i, u := range ds.srcs {
					got[u] = append([]tripSpan(nil), ds.spans[ds.offs[i]:ds.offs[i+1]]...)
				}
				for u := 0; u < n; u++ {
					ws := want.pair(int32(u), int32(v))
					gs := got[int32(u)]
					if len(ws) == 0 && len(gs) == 0 {
						continue
					}
					if !reflect.DeepEqual(ws, gs) {
						t.Fatalf("n=%d cap=%d pair (%d,%d): arena %v != index %v", n, spillCap, u, v, gs, ws)
					}
				}

				// The window query agrees with the flat index on random
				// windows (the shared minDurationIn makes this structural,
				// but pin it end to end through the decode).
				rng := rand.New(rand.NewSource(int64(v)))
				for q := 0; q < 20; q++ {
					u := int32(rng.Intn(n))
					lo := int64(rng.Intn(1200) - 100)
					hi := lo + int64(rng.Intn(300))
					gd, gok := ds.minDurationWithin(u, lo, hi)
					wd, wok := want.minDurationWithin(u, int32(v), lo, hi)
					if gok != wok || (gok && gd != wd) {
						t.Fatalf("n=%d pair (%d,%d) window [%d,%d]: arena %d,%v != index %d,%v",
							n, u, v, lo, hi, gd, gok, wd, wok)
					}
				}
			}
			a.release()
		}
	}
}

// TestSpanArenaSpilledReadAfterRelease pins the failure mode: decoding
// a spilled destination after the shelf closed reports the shelf, not
// garbage.
func TestSpanArenaSpilledReadAfterRelease(t *testing.T) {
	trips := randomTrips(8, 3)
	a := newSpanArena(8, 1)
	dests, runs := destRuns(8, trips)
	for i := range dests {
		if err := a.addRun(dests[i], runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	a.finish()
	a.release()
	ds := &destSpans{}
	err := a.decodeDest(dests[0], ds)
	if err == nil {
		t.Fatal("decoding a spilled region after release must fail")
	}
}

// TestElongationSpillForcedBitExact is the acceptance gate for the
// spill shelf: an elongation run whose arena is forced to spill after
// every encoded run (SpillBytes 1) produces the identical curve — every
// float bit — as the all-in-RAM observer and the eager reference, and
// really did spill.
func TestElongationSpillForcedBitExact(t *testing.T) {
	for _, directed := range []bool{false, true} {
		s := mixedStream(t, 8, 2, 3000, 4)
		grid := []int64{1, 12, 90, 700, 3000}

		want, err := ElongationCurveReference(s, grid, Options{Directed: directed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		obs := NewElongationObserver()
		if err := sweep.Run(context.Background(), s, grid, sweep.Options{Directed: directed, Workers: 3, MaxInFlight: 2}, obs); err != nil {
			t.Fatal(err)
		}
		inRAM := obs.Points()

		spilling := NewElongationObserver()
		spilling.SpillBytes = 1
		if err := sweep.Run(context.Background(), s, grid,
			sweep.Options{Directed: directed, Workers: 3, MaxInFlight: 2}, spilling); err != nil {
			t.Fatal(err)
		}
		if spilling.arena.spilled == 0 {
			t.Fatal("SpillBytes=1 run never touched the spill shelf")
		}

		for i := range grid {
			if spilling.Points()[i] != want[i] {
				t.Fatalf("directed=%v point %d: spilled %+v != reference %+v", directed, i, spilling.Points()[i], want[i])
			}
			if inRAM[i] != want[i] {
				t.Fatalf("directed=%v point %d: resident %+v != reference %+v", directed, i, inRAM[i], want[i])
			}
		}
	}
}
