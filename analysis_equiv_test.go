package repro

// Equivalence pins for the single public entry point: Plan.Run must be
// bit-exact with the internal implementation each analysis reaches,
// across every option matrix. Each test is named after the removed
// root entry point whose plan it pins (see the README's "Removed entry
// points" table). Together with the internal packages' own *Reference
// equivalence suites, this chains the single execution path all the
// way back to the seed implementations.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/validate"
)

// planOptions maps the occupancy-method options onto plan options.
func planOptions(opt Options) []Option {
	opts := []Option{
		WithDirected(opt.Directed),
		WithWorkers(opt.Workers),
		WithSelectors(opt.Selectors...),
		WithRefine(opt.Refine),
		WithHistogramBins(opt.HistogramBins),
		WithMaxInFlight(opt.MaxInFlight),
	}
	if len(opt.Grid) > 0 {
		opts = append(opts, WithGrid(opt.Grid...))
	}
	return opts
}

// occupancyCurve scores every period of grid with one occupancy
// observer in one plain sweep.Run pass: the un-refined curve of opt.
func occupancyCurve(s *Stream, grid []int64, opt Options) ([]SweepPoint, error) {
	obs := core.NewOccupancyObserver(opt.Selectors)
	eng := sweep.Options{
		Directed:      opt.Directed,
		Workers:       opt.Workers,
		MaxInFlight:   opt.MaxInFlight,
		HistogramBins: opt.HistogramBins,
		LaneWidth:     opt.LaneWidth,
	}
	if err := sweep.Run(context.Background(), s, grid, eng, obs); err != nil {
		return nil, err
	}
	return obs.Points(), nil
}

// runPlan builds and runs a plan over s.
func runPlan(t *testing.T, s *Stream, opts ...Option) *Report {
	t.Helper()
	plan, err := NewAnalysis(s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSaturationScaleWrapperEquivalence(t *testing.T) {
	s := uniformWorkload(t)
	for _, opt := range []Options{
		{},
		{Grid: LogGrid(1, 50_000, 12), Refine: 4},
		{Grid: LogGrid(1, 50_000, 9), Directed: true, Workers: 3},
		{Grid: LogGrid(1, 50_000, 9), Selectors: AllSelectors(), MaxInFlight: 2},
	} {
		want, err := core.SaturationScale(context.Background(), s, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, ok := runPlan(t, s, planOptions(opt)...).Scale()
		if !ok || !reflect.DeepEqual(res, want) {
			t.Fatalf("plan scale diverged for %+v:\n got %+v\nwant %+v", opt, res, want)
		}
	}
}

func TestSweepWrapperEquivalence(t *testing.T) {
	s := uniformWorkload(t)
	grid := LogGrid(1, 50_000, 10)
	for _, opt := range []Options{
		{},
		{Selectors: AllSelectors()},
		{Directed: true, Workers: 2, MaxInFlight: 1},
		{HistogramBins: 512},
	} {
		want, err := occupancyCurve(s, grid, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Grid = grid
		got := runPlan(t, s, planOptions(opt)...).Occupancy()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("plan occupancy curve diverged for %+v", opt)
		}
	}
}

func TestCurveWrapperEquivalence(t *testing.T) {
	s := uniformWorkload(t)
	grid := LogGrid(1, 50_000, 8)
	for _, directed := range []bool{false, true} {
		curve := func(m Metric) *Report {
			return runPlan(t, s, WithMetrics(m), WithGrid(grid...), WithDirected(directed))
		}
		cls, loss, elong := classic.NewObserver(), validate.NewTransitionLossObserver(), validate.NewElongationObserver()
		for _, obs := range []sweep.Observer{cls, loss, elong} {
			if err := sweep.Run(context.Background(), s, grid, sweep.Options{Directed: directed}, obs); err != nil {
				t.Fatal(err)
			}
		}
		if got := curve(MetricClassic).Classic(); !reflect.DeepEqual(got, cls.Points()) {
			t.Fatalf("plan classic curve diverged (directed=%v)", directed)
		}
		if got := curve(MetricTransitionLoss).TransitionLoss(); !reflect.DeepEqual(got, loss.Points()) {
			t.Fatalf("plan transition-loss curve diverged (directed=%v)", directed)
		}
		if got := curve(MetricElongation).Elongation(); !reflect.DeepEqual(got, elong.Points()) {
			t.Fatalf("plan elongation curve diverged (directed=%v)", directed)
		}
	}
}

func TestAnalyzeAdaptiveWrapperEquivalence(t *testing.T) {
	s := twoModeWorkload(t)
	for _, tc := range []struct {
		cfg AdaptiveConfig
		opt Options // the scale searches' and engine passes' knobs
	}{
		{},
		{AdaptiveConfig{Bins: 60, GridPoints: 10}, Options{MaxInFlight: 2}},
		{AdaptiveConfig{GridPoints: 8}, Options{Refine: 2, Workers: 3}},
	} {
		engine := sweep.Options{Directed: tc.opt.Directed, Workers: tc.opt.Workers, MaxInFlight: tc.opt.MaxInFlight}
		want, err := adaptive.Analyze(context.Background(), s, tc.cfg, tc.opt, engine)
		if err != nil {
			t.Fatal(err)
		}
		// WithAdaptive reads only the segmentation knobs; the grid and
		// execution fields map onto the matching plan options.
		opts := append(planOptions(tc.opt), WithAdaptive(tc.cfg), WithGridPoints(tc.cfg.GridPoints), WithMinDelta(tc.cfg.MinDelta))
		if got := runPlan(t, s, opts...).Adaptive(); !reflect.DeepEqual(got, want) {
			t.Fatalf("plan adaptive analysis diverged for %+v:\n got %+v\nwant %+v", tc, got, want)
		}
	}
}

func TestMultiSweepWrapperEquivalence(t *testing.T) {
	s := uniformWorkload(t)
	grid := LogGrid(1, 50_000, 8)

	build := func() []SweepObserver {
		return []SweepObserver{
			NewOccupancyObserver(nil),
			NewClassicObserver(),
			NewTransitionLossObserver(),
			NewElongationObserver(),
			NewDistanceObserver(),
		}
	}
	wantObs := build()
	if err := sweep.Run(context.Background(), s, grid, sweep.Options{MaxInFlight: 2}, wantObs...); err != nil {
		t.Fatal(err)
	}
	gotObs := build()
	rep := runPlan(t, s, WithMetrics(), WithGrid(grid...), WithMaxInFlight(2), WithObservers(gotObs...))
	if stats := rep.EngineStats(); stats.Passes != 1 || stats.Builds != int64(len(grid)) {
		t.Fatalf("plan did not surface engine stats: %+v", stats)
	}
	for i := range wantObs {
		want := observerPoints(t, wantObs[i])
		got := observerPoints(t, gotObs[i])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("plan observers diverged for observer %d (%T)", i, wantObs[i])
		}
	}

	// Windowed: one whole-stream segment and one windowed segment.
	t0, t1, _ := s.Span()
	mid := (t0 + t1) / 2
	segs := func(obs []SweepObserver) []SegmentObserver {
		return []SegmentObserver{
			{Grid: grid, Observers: []SweepObserver{obs[0], obs[1]}},
			{Start: t0, End: mid, Grid: grid[:5], Observers: []SweepObserver{obs[2], obs[3], obs[4]}},
		}
	}
	wantObs = build()
	if err := sweep.RunWindowed(context.Background(), s, sweep.Options{}, segs(wantObs)...); err != nil {
		t.Fatal(err)
	}
	gotObs = build()
	runPlan(t, s, WithMetrics(), WithSegments(segs(gotObs)...))
	for i := range wantObs {
		if !reflect.DeepEqual(observerPoints(t, gotObs[i]), observerPoints(t, wantObs[i])) {
			t.Fatalf("plan segments diverged for observer %d (%T)", i, wantObs[i])
		}
	}
}

// observerPoints extracts the typed curve of any built-in observer.
func observerPoints(t *testing.T, o SweepObserver) any {
	t.Helper()
	switch obs := o.(type) {
	case *OccupancyObserver:
		return obs.Points()
	case *ClassicObserver:
		return obs.Points()
	case *TransitionLossObserver:
		return obs.Points()
	case *ElongationObserver:
		return obs.Points()
	case *DistanceObserver:
		return obs.Points()
	default:
		t.Fatalf("unknown observer type %T", o)
		return nil
	}
}
