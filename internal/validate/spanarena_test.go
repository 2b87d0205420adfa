package validate

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sweep"
	"repro/internal/temporal"
)

// randomTrips builds a random trip population between the first active
// of n node ids (a small active set keeps pairs dense while the id
// space — and the arena's destOff table — can be large).
func randomTrips(n, active int, seed int64) []temporal.Trip {
	rng := rand.New(rand.NewSource(seed))
	small := min(n, active)
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

// minDurationWithin mirrors pairIndex.minDurationWithin over the
// decoded region, finding u by a binary search of its sources and
// leaving the cursors alone: the arena-vs-index check's query.
func (ds *destSpans) minDurationWithin(u int32, a, b int64) (int64, bool) {
	i := sort.Search(len(ds.srcs), func(i int) bool { return ds.srcs[i] >= u })
	if i == len(ds.srcs) || ds.srcs[i] != u {
		return -1, false
	}
	return minDurationIn(ds.spans[ds.offs[i]:ds.offs[i+1]], a, b)
}

// TestSpanArenaMatchesPairIndex decodes every destination region of the
// delta-encoded arena and requires exactly the integer spans the eager
// flat/map pair index holds — for small and large node counts and for
// an arena of many chunks (300 active nodes), with the spill shelf off,
// forced on after every run (cap 1 byte), and flushing a few runs or
// several chunks at a time.
func TestSpanArenaMatchesPairIndex(t *testing.T) {
	for _, n := range []int{1, 5, 12, 300, maxFlatPairNodes + 1} {
		for _, spillCap := range []int64{0, 1, 512, 200_000} {
			active := 16
			if n == 300 {
				active = n
			}
			trips := randomTrips(n, active, int64(n))
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
			if n == 300 && (spillCap == 0 || spillCap == 200_000) && (len(a.chunks) < 3 || spillCap > 0 && a.spilled == 0) {
				t.Fatalf("n=%d cap=%d: %d chunks, %d bytes spilled; want a many-chunk arena", n, spillCap, len(a.chunks), a.spilled)
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
	trips := randomTrips(8, 16, 3)
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

// buildArena encodes trips into a sealed arena the way the observer
// does: one run per destination, in increasing destination order.
func buildArena(t *testing.T, n int, spillCap int64, trips []temporal.Trip) *spanArena {
	t.Helper()
	a := newSpanArena(n, spillCap)
	dests, runs := destRuns(n, trips)
	for i := range dests {
		if err := a.addRun(dests[i], runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	a.finish()
	return a
}

// spanQuery is one scoring query: source u, window [a, b].
type spanQuery struct {
	u    int32
	a, b int64
}

// laneQueries builds queries in the order a lane delivers them: each
// source's windows move left (a and b non-increasing), and the
// sources' sequences interleave at random. Sources run one past the
// node range so absent and out-of-range sources are asked too.
func laneQueries(rng *rand.Rand, n int) []spanQuery {
	srcs := min(n, 16) + 1
	perSrc := make([][]spanQuery, srcs)
	total := 0
	for u := range perSrc {
		k := rng.Intn(8)
		as, bs := make([]int64, k), make([]int64, k)
		for i := range as {
			as[i] = int64(700 + rng.Intn(400))
			bs[i] = as[i] + int64(rng.Intn(120))
		}
		sort.Slice(as, func(i, j int) bool { return as[i] > as[j] })
		sort.Slice(bs, func(i, j int) bool { return bs[i] > bs[j] })
		for i := range as {
			perSrc[u] = append(perSrc[u], spanQuery{u: int32(u), a: as[i], b: max(as[i], bs[i])})
		}
		total += k
	}
	qs := make([]spanQuery, 0, total)
	for len(qs) < total {
		u := rng.Intn(srcs)
		if len(perSrc[u]) > 0 {
			qs = append(qs, perSrc[u][0])
			perSrc[u] = perSrc[u][1:]
		}
	}
	return qs
}

// checkCursor asks every query through ds's slot table and cursors and
// compares with minDurationIn over the same decoded spans, found by a
// linear scan of the region's sources.
func checkCursor(t *testing.T, ds *destSpans, qs []spanQuery, what string) {
	t.Helper()
	for _, q := range qs {
		var sp []tripSpan
		for i, u := range ds.srcs {
			if u == q.u {
				sp = ds.spans[ds.offs[i]:ds.offs[i+1]]
			}
		}
		wd, wok := minDurationIn(sp, q.a, q.b)
		gd, gok := ds.minDuration(q.u, q.a, q.b)
		if gok != wok || gd != wd {
			t.Fatalf("%s: source %d window [%d,%d]: cursor %d,%v != search %d,%v", what, q.u, q.a, q.b, gd, gok, wd, wok)
		}
	}
}

// TestDestSpansCursorMatchesSearch pins the slot-table-and-cursor
// lookup of the elongation scan to minDurationIn on every decoded
// destination, with queries in lane order and shuffled, the spill
// shelf off, forced after every run (cap 1) and at 512 bytes — all
// through one reused destSpans, as a pooled worker scratch is. It then
// checks that failed decodes, one at the closed shelf and one half-way
// through a corrupt region, leave no stale slot for the next good
// decode.
func TestDestSpansCursorMatchesSearch(t *testing.T) {
	t.Run("lane-and-shuffled", func(t *testing.T) {
		ds := &destSpans{}
		for _, n := range []int{1, 5, 12, maxFlatPairNodes + 1} {
			for _, spillCap := range []int64{0, 1, 512} {
				a := buildArena(t, n, spillCap, randomTrips(n, 16, int64(n)+7))
				rng := rand.New(rand.NewSource(int64(n) ^ spillCap))
				for v := 0; v < n; v++ {
					qs := laneQueries(rng, n)
					for _, shuffled := range []bool{false, true} {
						if shuffled {
							rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
						}
						if err := a.decodeDest(int32(v), ds); err != nil {
							t.Fatalf("n=%d cap=%d dest %d: %v", n, spillCap, v, err)
						}
						checkCursor(t, ds, qs, fmt.Sprintf("n=%d cap=%d dest %d shuffled=%v", n, spillCap, v, shuffled))
					}
				}
				a.release()
			}
		}
	})

	t.Run("failed-decode", func(t *testing.T) {
		const n = 8
		// Dest 7 hears from sources 0..6; dest 0 only from source 7.
		var trips []temporal.Trip
		for u := int32(0); u < 7; u++ {
			trips = append(trips, temporal.Trip{U: u, V: 7, Dep: 900, Arr: 905}, temporal.Trip{U: u, V: 7, Dep: 800, Arr: 802})
		}
		trips = append(trips, temporal.Trip{U: 7, V: 0, Dep: 850, Arr: 860})
		good := buildArena(t, n, 0, trips)
		defer good.release()
		closed := buildArena(t, n, 1, trips)
		closed.release()
		// Source 2's header and first departure, cut before its
		// duration: the decode fails after setting source 2's slot.
		cut := binary.AppendUvarint(nil, 3)
		cut = binary.AppendUvarint(cut, 2)
		cut = binary.AppendVarint(cut, 900)
		corrupt := newSpanArena(n, 0)
		corrupt.destChunk[0] = corrupt.place(cut)
		corrupt.nextDest = 1
		corrupt.finish()

		var all []spanQuery
		for u := int32(0); u <= n; u++ {
			all = append(all, spanQuery{u: u, a: 0, b: 2000}, spanQuery{u: u, a: 850, b: 910})
		}
		ds := &destSpans{}
		for _, fail := range []struct {
			name string
			a    *spanArena
			d    int32
		}{{"closed shelf", closed, 7}, {"corrupt region", corrupt, 0}} {
			if err := good.decodeDest(7, ds); err != nil {
				t.Fatal(err)
			}
			checkCursor(t, ds, all, "dest 7 before "+fail.name)
			if err := fail.a.decodeDest(fail.d, ds); err == nil {
				t.Fatalf("%s: decode must fail", fail.name)
			}
			if err := good.decodeDest(0, ds); err != nil {
				t.Fatal(err)
			}
			if len(ds.srcs) != 1 || ds.srcs[0] != 7 {
				t.Fatalf("after %s: dest 0 sources %v, want [7]", fail.name, ds.srcs)
			}
			checkCursor(t, ds, all, "dest 0 after "+fail.name)
		}
	})
}
