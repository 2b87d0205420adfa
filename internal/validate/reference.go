package validate

import (
	"errors"

	"repro/internal/linkstream"
	"repro/internal/series"
	"repro/internal/temporal"
)

// This file retains the seed implementations the engine observers
// replaced, as behavioural references: the *CurveReference functions
// run one dedicated temporal pass per metric. They are bit-exact with
// the streaming observers (the equivalence tests pin the full seeds ×
// orientations × workers × in-flight matrix), because every
// implementation folds the elongation sum as per-destination subtotals
// in destination order.

// TransitionLossCurveReference is the seed implementation of the
// TransitionLossObserver curve: enumerate the stream's shortest transitions with
// a dedicated temporal pass, then scan them per period. Retained as the
// behavioural reference for the equivalence tests and the
// separate-passes benchmarks.
func TransitionLossCurveReference(s *linkstream.Stream, grid []int64, opt Options) ([]LossPoint, error) {
	if s.NumEvents() == 0 {
		return nil, errors.New("validate: stream has no events")
	}
	if len(grid) == 0 {
		return nil, errors.New("validate: empty grid")
	}
	t0, _, _ := s.Span()
	cfg := temporal.Config{N: s.NumNodes(), Directed: opt.Directed, Workers: opt.Workers}
	trans := temporal.ShortestTransitions(cfg, temporal.StreamLayers(s, opt.Directed))
	points := make([]LossPoint, 0, len(grid))
	for _, delta := range grid {
		lost := 0
		for _, tr := range trans {
			if (tr.Dep-t0)/delta == (tr.Arr-t0)/delta {
				lost++
			}
		}
		p := LossPoint{Delta: delta, Total: len(trans)}
		if len(trans) > 0 {
			p.Lost = float64(lost) / float64(len(trans))
		}
		points = append(points, p)
	}
	return points, nil
}

// ElongationCurveReference is the seed implementation of the
// ElongationObserver curve: one stream-trip enumeration for the pair index, then
// one Series aggregation plus one trip enumeration per period. The trip
// enumeration is destination-major for any worker count, and the sum is
// folded as per-destination subtotals in destination order — the same
// association the engine observers use — so the equivalence tests can
// require exact equality.
func ElongationCurveReference(s *linkstream.Stream, grid []int64, opt Options) ([]ElongationPoint, error) {
	if s.NumEvents() == 0 {
		return nil, errors.New("validate: stream has no events")
	}
	if len(grid) == 0 {
		return nil, errors.New("validate: empty grid")
	}
	cfg := temporal.Config{N: s.NumNodes(), Directed: opt.Directed, Workers: opt.Workers}
	idx := buildPairIndex(s.NumNodes(), temporal.CollectTrips(cfg, temporal.StreamLayers(s, opt.Directed)))
	points := make([]ElongationPoint, 0, len(grid))
	for _, delta := range grid {
		g, err := series.Aggregate(s, delta, opt.Directed)
		if err != nil {
			return nil, err
		}
		trips := temporal.CollectTrips(cfg, temporal.SeriesLayers(g))
		p := ElongationPoint{Delta: delta}
		sum, dsum := 0.0, 0.0
		dtrips := 0
		curDest := int32(-1)
		flush := func() {
			if dtrips > 0 {
				sum += dsum
				p.Trips += dtrips
			}
			dsum, dtrips = 0, 0
		}
		for _, tr := range trips {
			if tr.V != curDest {
				flush()
				curDest = tr.V
			}
			if tr.Dep == tr.Arr {
				continue // Definition 8 requires tu != tv
			}
			// See elongShard.ObserveTripBlock for the interval bounds
			// rationale.
			a := g.WindowStart(tr.Dep)
			b := g.WindowEnd(tr.Arr) - 1
			durL, ok := idx.minDurationWithin(tr.U, tr.V, a, b)
			if !ok || durL <= 0 {
				p.Unmatched++
				continue
			}
			dsum += float64(tr.Arr-tr.Dep+1) * float64(delta) / float64(durL)
			dtrips++
		}
		flush()
		if p.Trips > 0 {
			p.MeanElongation = sum / float64(p.Trips)
		}
		points = append(points, p)
	}
	return points, nil
}
