package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linkstream"
)

// randomSmallStream builds a random stream on up to 8 nodes.
func randomSmallStream(rng *rand.Rand) *linkstream.Stream {
	n := rng.Intn(6) + 3
	m := rng.Intn(60) + 10
	s := linkstream.New()
	s.EnsureNodes(n)
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if err := s.AddID(u, v, int64(rng.Intn(500))); err != nil {
			panic(err)
		}
	}
	return s
}

// Property: the occupancy method is invariant under time shifts —
// shifting every timestamp by a constant changes neither the grid
// (built from duration and resolution, both shift-invariant) nor any
// occupancy distribution, hence neither gamma.
func TestQuickTimeShiftInvariance(t *testing.T) {
	f := func(seed int64, shiftRaw int32) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSmallStream(rng)
		if s.NumEvents() == 0 {
			return true
		}
		shifted := s.Clone()
		shifted.ShiftTime(int64(shiftRaw))
		grid := LogGrid(1, s.Duration(), 10)
		opt := Options{Workers: 1}
		a, err := sweepPoints(s, grid, opt)
		if err != nil {
			return false
		}
		b, err := sweepPoints(shifted, grid, opt)
		if err != nil {
			return false
		}
		for i := range a {
			if a[i].Trips != b[i].Trips || a[i].Scores[0] != b[i].Scores[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the occupancy method is invariant under node relabelling —
// permuting node identities permutes trips but leaves the occupancy
// distribution, and therefore every score, unchanged.
func TestQuickRelabelInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSmallStream(rng)
		if s.NumEvents() == 0 {
			return true
		}
		n := s.NumNodes()
		perm := rng.Perm(n)
		relabeled := linkstream.New()
		relabeled.EnsureNodes(n)
		for _, e := range s.Events() {
			if err := relabeled.AddID(int32(perm[e.U]), int32(perm[e.V]), e.T); err != nil {
				return false
			}
		}
		grid := LogGrid(1, s.Duration(), 8)
		opt := Options{Workers: 1}
		a, err := sweepPoints(s, grid, opt)
		if err != nil {
			return false
		}
		b, err := sweepPoints(relabeled, grid, opt)
		if err != nil {
			return false
		}
		for i := range a {
			if a[i].Trips != b[i].Trips || a[i].Scores[0] != b[i].Scores[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: reversing edge orientation leaves the undirected analysis
// unchanged. (No such symmetry holds for the directed analysis: time
// still flows forward, so reversing edges without reversing time
// changes reachability.)
func TestQuickReversalInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSmallStream(rng)
		if s.NumEvents() == 0 {
			return true
		}
		reversed := linkstream.New()
		reversed.EnsureNodes(s.NumNodes())
		for _, e := range s.Events() {
			if err := reversed.AddID(e.V, e.U, e.T); err != nil {
				return false
			}
		}
		grid := LogGrid(1, s.Duration(), 8)
		opt := Options{Workers: 1}
		a, err := sweepPoints(s, grid, opt)
		if err != nil {
			return false
		}
		b, err := sweepPoints(reversed, grid, opt)
		if err != nil {
			return false
		}
		for i := range a {
			if a[i].Trips != b[i].Trips || a[i].Scores[0] != b[i].Scores[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
