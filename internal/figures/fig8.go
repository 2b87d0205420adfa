package figures

import (
	"context"

	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/sweep"
	"repro/internal/textplot"
	"repro/internal/validate"
)

// Fig8Result holds the Section 8 validation curves for the Irvine
// stand-in, plus the saturation scale they are checked against.
type Fig8Result struct {
	Gamma      int64
	Loss       []validate.LossPoint
	Elongation []validate.ElongationPoint
	// LossAtGamma and ElongationAtGamma interpolate the curves at γ.
	LossAtGamma       float64
	ElongationAtGamma float64
	// Stats is the engine instrumentation of the single pass.
	Stats sweep.RunStats
}

// Fig8 computes the transition-loss (left) and elongation (right)
// curves and evaluates them at γ. The paper reports ~48 % of shortest
// transitions lost and a mean elongation below 1.5 at γ = 18 h.
//
// All three quantities — the occupancy curve deciding γ, the loss curve
// and the elongation curve — come out of one engine pass: each
// period's CSR is built once and its single backward sweep feeds the
// occupancy, trip and stream-transition observers simultaneously.
func Fig8(p Profile) (*Fig8Result, error) {
	s, err := datasets.Irvine().Stream()
	if err != nil {
		return nil, err
	}
	s = p.prepare(s)
	grid := core.LogGrid(MinDelta, s.Duration(), p.GridPoints)
	occObs := core.NewOccupancyObserver(nil)
	lossObs := validate.NewTransitionLossObserver()
	elongObs := validate.NewElongationObserver()
	res := &Fig8Result{}
	err = sweep.Run(context.Background(), s, grid, sweep.Options{Workers: p.Workers, MaxInFlight: p.MaxInFlight, Stats: &res.Stats},
		occObs, lossObs, elongObs)
	if err != nil {
		return nil, err
	}
	points := occObs.Points()
	gamma := points[core.Best(points, 0)].Delta
	loss := lossObs.Points()
	elong := elongObs.Points()
	res.Gamma, res.Loss, res.Elongation = gamma, loss, elong
	res.LossAtGamma = interpAt(gamma, loss, func(p validate.LossPoint) (int64, float64) { return p.Delta, p.Lost })
	res.ElongationAtGamma = interpAt(gamma, elong, func(p validate.ElongationPoint) (int64, float64) { return p.Delta, p.MeanElongation })
	return res, nil
}

// interpAt linearly interpolates a curve at delta.
func interpAt[T any](delta int64, pts []T, get func(T) (int64, float64)) float64 {
	var prevX int64
	var prevY float64
	for i, p := range pts {
		x, y := get(p)
		if x >= delta {
			if i == 0 || x == delta {
				return y
			}
			f := float64(delta-prevX) / float64(x-prevX)
			return prevY + f*(y-prevY)
		}
		prevX, prevY = x, y
	}
	return prevY
}

// GammaInsideLossRamp reports whether γ falls inside the range where
// transitions are being lost — after the low-loss plateau and before
// total loss — the paper's qualitative validation.
func (r *Fig8Result) GammaInsideLossRamp() bool {
	if r.LossAtGamma <= 0.02 || r.LossAtGamma >= 0.98 {
		return false
	}
	first := r.Loss[0]
	last := r.Loss[len(r.Loss)-1]
	return first.Lost < r.LossAtGamma && last.Lost > r.LossAtGamma
}

// Render draws both Figure 8 panels.
func (r *Fig8Result) Render() string {
	lossPts := make([]textplot.XY, 0, len(r.Loss))
	for _, p := range r.Loss {
		lossPts = append(lossPts, textplot.XY{X: Hours(p.Delta), Y: p.Lost})
	}
	elongPts := make([]textplot.XY, 0, len(r.Elongation))
	for _, p := range r.Elongation {
		if p.Trips == 0 {
			continue // at ∆ = T no trip spans two windows
		}
		elongPts = append(elongPts, textplot.XY{X: Hours(p.Delta), Y: p.MeanElongation})
	}
	var b strings.Builder
	b.WriteString("Figure 8 — validation (Irvine stand-in)\n\n")
	b.WriteString(textplot.Plot(textplot.PlotConfig{
		Title:  "left: proportion of shortest transitions lost",
		XLabel: "aggregation period (h, log)", YLabel: "proportion lost", Height: 14, LogX: true,
	}, textplot.Series{Name: "lost", Marker: 'x', Points: lossPts}))
	b.WriteString("\n")
	b.WriteString(textplot.Plot(textplot.PlotConfig{
		Title:  "right: mean elongation factor of minimal trips",
		XLabel: "aggregation period (h, log)", YLabel: "elongation", Height: 14, LogX: true,
	}, textplot.Series{Name: "elongation", Marker: 'x', Points: elongPts}))
	fmt.Fprintf(&b, "gamma = %s; loss at gamma = %.0f%%; elongation at gamma = %.2f; gamma inside loss ramp: %v\n",
		formatGamma(r.Gamma), 100*r.LossAtGamma, r.ElongationAtGamma, r.GammaInsideLossRamp())
	return b.String()
}
