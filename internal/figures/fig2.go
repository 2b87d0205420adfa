package figures

import (
	"context"

	"strings"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/sweep"
	"repro/internal/textplot"
)

// Fig2Result holds the Figure 2 curves for the Irvine stand-in: the
// classical graph-series properties as functions of ∆, which all drift
// smoothly (Section 3's point).
type Fig2Result struct {
	Points []classic.Point
	// Stats is the engine instrumentation of the single pass.
	Stats sweep.RunStats
}

// Fig2 computes the classical-property curves in one engine pass.
func Fig2(p Profile) (*Fig2Result, error) {
	s, err := datasets.Irvine().Stream()
	if err != nil {
		return nil, err
	}
	s = p.prepare(s)
	grid := core.LogGrid(MinDelta, s.Duration(), p.GridPoints)
	res := &Fig2Result{}
	obs := classic.NewObserver()
	err = sweep.Run(context.Background(), s, grid, sweep.Options{Workers: p.Workers, MaxInFlight: p.MaxInFlight, Stats: &res.Stats}, obs)
	if err != nil {
		return nil, err
	}
	res.Points = obs.Points()
	return res, nil
}

// MonotoneDrift reports whether the curves exhibit the paper's smooth
// monotone drift: density and connectedness grow, hops shrink and
// absolute time grows from one end of the scale range to the other.
func (r *Fig2Result) MonotoneDrift() bool {
	if len(r.Points) < 2 {
		return false
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	return first.MeanDensity < last.MeanDensity &&
		first.MeanNonIsolated < last.MeanNonIsolated &&
		first.MeanDistHops > last.MeanDistHops &&
		first.MeanDistAbsTime < last.MeanDistAbsTime
}

// Render draws the four panels of Figure 2.
func (r *Fig2Result) Render() string {
	toXY := func(f func(classic.Point) float64) []textplot.XY {
		out := make([]textplot.XY, 0, len(r.Points))
		for _, p := range r.Points {
			out = append(out, textplot.XY{X: Hours(p.Delta), Y: f(p)})
		}
		return out
	}
	var b strings.Builder
	b.WriteString("Figure 2 — classical properties vs aggregation period (Irvine stand-in)\n\n")
	b.WriteString(textplot.Plot(textplot.PlotConfig{
		Title: "top-left: mean density", XLabel: "delta (h)", YLabel: "density", Height: 12, LogX: true,
	}, textplot.Series{Name: "density", Marker: 'd', Points: toXY(func(p classic.Point) float64 { return p.MeanDensity })}))
	b.WriteString("\n")
	b.WriteString(textplot.Plot(textplot.PlotConfig{
		Title: "top-right: connectedness", XLabel: "delta (h)", YLabel: "vertices", Height: 12, LogX: true,
	},
		textplot.Series{Name: "non-isolated", Marker: 'n', Points: toXY(func(p classic.Point) float64 { return p.MeanNonIsolated })},
		textplot.Series{Name: "largest component", Marker: 'c', Points: toXY(func(p classic.Point) float64 { return p.MeanLargestComp })},
	))
	b.WriteString("\n")
	b.WriteString(textplot.Plot(textplot.PlotConfig{
		Title: "bottom-left: mean distance in time (log-log)", XLabel: "delta (h)", YLabel: "dtime (windows)",
		Height: 12, LogX: true, LogY: true,
	}, textplot.Series{Name: "distance in time", Marker: 't', Points: toXY(func(p classic.Point) float64 { return p.MeanDistTime })}))
	b.WriteString("\n")
	b.WriteString(textplot.Plot(textplot.PlotConfig{
		Title: "bottom-right: distance in hops and in absolute time", XLabel: "delta (h)", YLabel: "(mixed)",
		Height: 12, LogX: true,
	},
		textplot.Series{Name: "hops", Marker: 'h', Points: toXY(func(p classic.Point) float64 { return p.MeanDistHops })},
		textplot.Series{Name: "abs time (h, /100)", Marker: 'a', Points: toXY(func(p classic.Point) float64 { return Hours(int64(p.MeanDistAbsTime)) / 100 })},
	))
	return b.String()
}
