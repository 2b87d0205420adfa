package figures

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dist"
	"repro/internal/sweep"
	"repro/internal/textplot"
)

// Fig7Selection is the aggregation period chosen by one selection
// method.
type Fig7Selection struct {
	Selector   string
	Delta      int64
	GammaHours float64
}

// Fig7Result compares the five Section 7 selection methods on the
// Irvine stand-in: the paper finds that all of them except the variation
// coefficient select nearly the same period, while the variation
// coefficient collapses to the timestamp resolution.
type Fig7Result struct {
	Selections []Fig7Selection
	// Curves[i] is the score of selector i at every period, normalised
	// to maximum 1 as in the paper's right panel.
	Curves []textplot.Series
	Points []core.SweepPoint
}

// Fig7 runs the multi-selector sweep.
func Fig7(p Profile) (*Fig7Result, error) {
	s, err := datasets.Irvine().Stream()
	if err != nil {
		return nil, err
	}
	s = p.prepare(s)
	sels := dist.AllSelectors()
	grid := core.LogGrid(MinDelta, s.Duration(), p.GridPoints)
	occ := core.NewOccupancyObserver(sels)
	if err := sweep.Run(context.Background(), s, grid, sweep.Options{Workers: p.Workers, MaxInFlight: p.MaxInFlight}, occ); err != nil {
		return nil, err
	}
	points := occ.Points()
	res := &Fig7Result{Points: points}
	markers := []rune{'m', 's', 'v', 'e', 'c'}
	for i, sel := range sels {
		best := core.Best(points, i)
		res.Selections = append(res.Selections, Fig7Selection{
			Selector:   sel.Name(),
			Delta:      points[best].Delta,
			GammaHours: Hours(points[best].Delta),
		})
		maxScore := points[best].Scores[i]
		serie := textplot.Series{Name: sel.Name(), Marker: markers[i%len(markers)]}
		for _, pt := range points {
			y := pt.Scores[i]
			if maxScore > 0 {
				y /= maxScore
			}
			serie.Points = append(serie.Points, textplot.XY{X: Hours(pt.Delta), Y: y})
		}
		res.Curves = append(res.Curves, serie)
	}
	return res, nil
}

// Agreement returns the ratio between the largest and smallest period
// selected by the four non-degenerate methods (everything except the
// variation coefficient). The paper reports periods within ~30 % of
// each other (14.5 h to 18.7 h).
func (r *Fig7Result) Agreement() float64 {
	var lo, hi float64
	for _, s := range r.Selections {
		if s.Selector == "variation-coefficient" {
			continue
		}
		if lo == 0 || s.GammaHours < lo {
			lo = s.GammaHours
		}
		if s.GammaHours > hi {
			hi = s.GammaHours
		}
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}

// VariationCoefficientDegenerates reports whether the variation
// coefficient picked (close to) the smallest swept period, the paper's
// negative result for that metric.
func (r *Fig7Result) VariationCoefficientDegenerates() bool {
	if len(r.Points) == 0 {
		return false
	}
	smallest := r.Points[0].Delta
	for _, s := range r.Selections {
		if s.Selector == "variation-coefficient" {
			return s.Delta <= smallest*4
		}
	}
	return false
}

// Render draws the Figure 7 comparison.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7 — selection methods compared (Irvine stand-in)\n")
	rows := make([][]string, 0, len(r.Selections))
	for _, s := range r.Selections {
		rows = append(rows, []string{s.Selector, fmt.Sprintf("%.1f", s.GammaHours)})
	}
	b.WriteString(textplot.Table([]string{"method", "selected period (h)"}, rows))
	fmt.Fprintf(&b, "agreement ratio of non-degenerate methods: %.2f\n", r.Agreement())
	fmt.Fprintf(&b, "variation coefficient degenerates to the resolution: %v\n\n",
		r.VariationCoefficientDegenerates())
	b.WriteString(textplot.Plot(textplot.PlotConfig{
		Title:  "normalised metric curves",
		XLabel: "aggregation period (h)", YLabel: "score / max", Height: 14, LogX: true,
	}, r.Curves...))
	return b.String()
}
