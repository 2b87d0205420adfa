// Package classic computes the classical graph-series properties the
// paper tracks across aggregation scales in Figure 2 — density,
// connectedness and the three distance notions — to demonstrate that
// none of them exhibits a qualitative change at any scale (Section 3),
// which is what motivates the occupancy method.
package classic

import (
	"errors"

	"repro/internal/linkstream"
	"repro/internal/series"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// Point holds every Figure 2 quantity for one aggregation period.
type Point struct {
	Delta int64 `json:"delta"`

	// Figure 2 top-left.
	MeanDensity float64 `json:"mean_density"`
	MeanDegree  float64 `json:"mean_degree"`

	// Figure 2 top-right.
	MeanNonIsolated float64 `json:"mean_non_isolated"`
	MeanLargestComp float64 `json:"mean_largest_comp"`

	// Figure 2 bottom: mean distances over all couples and start times
	// with a finite distance. MeanDistTime is in window counts
	// (dtime = arr - dep + 1); MeanDistAbsTime = Delta * MeanDistTime is
	// in raw time units.
	MeanDistTime    float64 `json:"mean_dist_time"`
	MeanDistHops    float64 `json:"mean_dist_hops"`
	MeanDistAbsTime float64 `json:"mean_dist_abs_time"`
	FinitePairs     int64   `json:"finite_pairs"`
}

// Options configures the per-period reference computations.
type Options struct {
	Directed bool
	Workers  int
}

// Observer collects the Figure 2 quantities as a sweep-engine
// observer: window statistics and distance means both fall out of the
// engine's single pass per period, so fusing the classical curve with
// the occupancy or validation metrics costs no extra aggregation.
type Observer struct {
	points []Point
}

// NewObserver returns an empty classical-properties observer.
func NewObserver() *Observer { return &Observer{} }

// Needs implements sweep.Observer.
func (o *Observer) Needs() sweep.Needs {
	return sweep.Needs{WindowStats: true, Distances: true}
}

// Begin implements sweep.Observer.
func (o *Observer) Begin(v *sweep.StreamView) error {
	o.points = make([]Point, len(v.Grid))
	return nil
}

// ObservePeriod implements sweep.Observer.
func (o *Observer) ObservePeriod(p *sweep.Period) error {
	st, d := p.Windows, p.Distances
	o.points[p.Index] = Point{
		Delta:           p.Delta,
		MeanDensity:     st.MeanDensity,
		MeanDegree:      st.MeanDegree,
		MeanNonIsolated: st.MeanNonIsolated,
		MeanLargestComp: st.MeanLargestComp,
		MeanDistTime:    d.MeanTime,
		MeanDistHops:    d.MeanHops,
		MeanDistAbsTime: float64(p.Delta) * d.MeanTime,
		FinitePairs:     d.Count,
	}
	return nil
}

// Points returns the curve in grid order. Valid after sweep.Run
// returns without error.
func (o *Observer) Points() []Point { return o.points }

// CurveReference is the seed implementation of the Observer's curve:
// one At call — a full Series aggregation plus a dedicated distance
// pass — per period.
// Retained as the behavioural reference for the equivalence tests and
// the separate-passes benchmarks.
func CurveReference(s *linkstream.Stream, grid []int64, opt Options) ([]Point, error) {
	if s.NumEvents() == 0 {
		return nil, errors.New("classic: stream has no events")
	}
	if len(grid) == 0 {
		return nil, errors.New("classic: empty grid")
	}
	points := make([]Point, 0, len(grid))
	for _, delta := range grid {
		p, err := At(s, delta, opt)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// At computes the Figure 2 quantities for a single period. It is the
// seed per-∆ implementation — one Series aggregation plus one distance
// pass — retained as the reference Curve is equivalence-tested
// against.
func At(s *linkstream.Stream, delta int64, opt Options) (Point, error) {
	g, err := series.Aggregate(s, delta, opt.Directed)
	if err != nil {
		return Point{}, err
	}
	st, err := g.ComputeStats()
	if err != nil {
		return Point{}, err
	}
	cfg := temporal.Config{N: g.N, Directed: opt.Directed, Workers: opt.Workers}
	d := temporal.DistancesCSR(cfg, temporal.SeriesCSR(g), 0, 1)
	return Point{
		Delta:           delta,
		MeanDensity:     st.MeanDensity,
		MeanDegree:      st.MeanDegree,
		MeanNonIsolated: st.MeanNonIsolated,
		MeanLargestComp: st.MeanLargestComp,
		MeanDistTime:    d.MeanTime,
		MeanDistHops:    d.MeanHops,
		MeanDistAbsTime: float64(delta) * d.MeanTime,
		FinitePairs:     d.Count,
	}, nil
}
