package repro

// Behavioural tests of the plan/run lifecycle: option validation, the
// typed Report, windows, progress streaming, engine statistics and
// plan immutability.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/synth"
)

func twoModeWorkload(t testing.TB) *Stream {
	t.Helper()
	s, err := synth.TwoMode(synth.TwoModeConfig{
		Nodes: 16, N1: 20, N2: 1,
		T1: 20_000, T2: 40_000, Alternations: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewAnalysisValidation(t *testing.T) {
	s := uniformWorkload(t)
	cases := []struct {
		name string
		s    *Stream
		opts []Option
	}{
		{"nil stream", nil, nil},
		{"empty stream", NewStream(), nil},
		{"empty grid", s, []Option{WithGrid()}},
		{"non-positive grid entry", s, []Option{WithGrid(10, 0)}},
		{"adaptive with windows", s, []Option{WithAdaptive(AdaptiveConfig{}), WithWindows(Window{Start: 0, End: 10})}},
		{"adaptive with explicit grid", s, []Option{WithAdaptive(AdaptiveConfig{}), WithGrid(1, 2)}},
		{"adaptive with segments", s, []Option{WithAdaptive(AdaptiveConfig{}), WithSegments(SegmentObserver{Grid: []int64{1}})}},
		{"adaptive with histogram", s, []Option{WithAdaptive(AdaptiveConfig{}), WithHistogramBins(64)}},
		{"histogram with non-MK selector", s, []Option{WithHistogramBins(64), WithSelectors(AllSelectors()...)}},
		{"nothing to compute", s, []Option{WithMetrics()}},
		{"window without metric", s, []Option{WithMetrics(), WithObservers(NewOccupancyObserver(nil)), WithWindows(Window{Start: 0, End: 10_000})}},
		{"empty window", s, []Option{WithWindows(Window{Start: 5, End: 5})}},
		{"bad window grid", s, []Option{WithWindows(Window{Start: 0, End: 10, Grid: []int64{-1}})}},
		{"unknown metric", s, []Option{WithMetrics(Metric(250))}},
	}
	for _, tc := range cases {
		if _, err := NewAnalysis(tc.s, tc.opts...); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := NewAnalysis(NewStream()); err != ErrNoEvents {
		t.Errorf("empty stream error = %v, want ErrNoEvents", err)
	}
}

func TestParseMetrics(t *testing.T) {
	ms, err := ParseMetrics(" occupancy, loss,elongation ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Metric{MetricOccupancy, MetricTransitionLoss, MetricElongation}
	if !reflect.DeepEqual(ms, want) {
		t.Fatalf("ParseMetrics = %v, want %v", ms, want)
	}
	if _, err := ParseMetrics("occupancy,warp"); err == nil {
		t.Fatal("unknown metric should error")
	}
	for m := Metric(0); m < 5; m++ {
		round, err := ParseMetrics(m.String())
		if err != nil || len(round) != 1 || round[0] != m {
			t.Fatalf("metric %v does not round-trip: %v %v", m, round, err)
		}
	}
}

func TestPlanRunAllMetricsReport(t *testing.T) {
	s := uniformWorkload(t)
	grid := LogGrid(1, 50_000, 10)
	plan, err := NewAnalysis(s,
		WithMetrics(MetricOccupancy, MetricClassic, MetricDistance, MetricTransitionLoss, MetricElongation),
		WithGrid(grid...),
		WithRefine(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, ok := rep.Scale()
	if !ok || res.Gamma <= 0 {
		t.Fatalf("Scale = %+v ok=%v", res, ok)
	}
	if rep.Gamma() != res.Gamma {
		t.Fatalf("Gamma accessor mismatch")
	}
	if len(rep.Occupancy()) < len(grid) {
		t.Fatalf("occupancy curve %d points, want >= %d (refined)", len(rep.Occupancy()), len(grid))
	}
	// The non-occupancy curves see the unrefined grid.
	for name, n := range map[string]int{
		"classic":    len(rep.Classic()),
		"distance":   len(rep.Distances()),
		"loss":       len(rep.TransitionLoss()),
		"elongation": len(rep.Elongation()),
	} {
		if n != len(grid) {
			t.Fatalf("%s curve has %d points, want %d", name, n, len(grid))
		}
	}
	st := rep.EngineStats()
	if st.Passes != 2 {
		t.Fatalf("Passes = %d, want 2 (base + refine)", st.Passes)
	}
	if st.Builds == 0 || st.Periods == 0 {
		t.Fatalf("engine stats not populated: %+v", st)
	}
	if st.StreamBuilds != 1 {
		t.Fatalf("StreamBuilds = %d, want 1 (loss and elongation share the enumeration)", st.StreamBuilds)
	}
}

func TestPlanRunWindows(t *testing.T) {
	s := twoModeWorkload(t)
	t0, t1, _ := s.Span()
	mid := (t0 + t1) / 2
	plan, err := NewAnalysis(s,
		WithMetrics(MetricOccupancy, MetricTransitionLoss),
		WithGridPoints(8),
		WithWindows(
			Window{Start: t0, End: mid},
			Window{Start: mid, End: t1 + 1, Grid: LogGrid(1, 1000, 6)},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumWindows() != 2 {
		t.Fatalf("NumWindows = %d, want 2", rep.NumWindows())
	}
	for i, w := range rep.Windows() {
		if w.Scale.Gamma <= 0 {
			t.Fatalf("window %d: no scale: %+v", i, w.Scale)
		}
		if len(w.Curves.Occupancy) == 0 || len(w.Curves.TransitionLoss) == 0 {
			t.Fatalf("window %d: missing curves", i)
		}
	}
	if got := rep.Window(1); len(got.Curves.TransitionLoss) != 6 {
		t.Fatalf("window 1 loss curve %d points, want 6 (explicit grid)", len(got.Curves.TransitionLoss))
	}

	// A window's analysis must be exactly the whole-stream analysis of
	// the window's sub-stream.
	sub := s.SliceTime(rep.Window(0).Start, rep.Window(0).End)
	subPlan, err := NewAnalysis(sub, WithMetrics(MetricOccupancy, MetricTransitionLoss), WithGridPoints(8))
	if err != nil {
		t.Fatal(err)
	}
	subRep, err := subPlan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Window(0).Scale, func() Result { r, _ := subRep.Scale(); return r }()) {
		t.Fatalf("window scale diverges from sub-stream scale:\n%+v\nvs\n%+v", rep.Window(0).Scale, subRep)
	}
	if !reflect.DeepEqual(rep.Window(0).Curves.TransitionLoss, subRep.TransitionLoss()) {
		t.Fatal("window loss curve diverges from sub-stream loss curve")
	}
}

func TestPlanRunAdaptiveReport(t *testing.T) {
	s := twoModeWorkload(t)
	plan, err := NewAnalysis(s,
		WithAdaptive(AdaptiveConfig{Bins: 60}),
		WithGridPoints(10),
		WithMetrics(MetricOccupancy, MetricClassic),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Adaptive()
	if a == nil {
		t.Fatal("no adaptive analysis")
	}
	if rep.Gamma() != a.GlobalGamma {
		t.Fatalf("Gamma = %d, want the adaptive global gamma %d", rep.Gamma(), a.GlobalGamma)
	}
	if len(rep.Classic()) == 0 {
		t.Fatal("classic curve missing from the adaptive global pass")
	}
	if len(rep.Occupancy()) == 0 {
		t.Fatal("occupancy curve missing")
	}
	if st := rep.EngineStats(); st.Passes == 0 || st.Builds == 0 {
		t.Fatalf("engine stats not populated: %+v", st)
	}
}

// TestPlanProgressAcrossPasses runs a refining standard plan and a
// refining adaptive plan: both must report a refinement pass, and every
// pass's PeriodsDone must reach its PeriodsTotal.
func TestPlanProgressAcrossPasses(t *testing.T) {
	for _, tc := range []struct {
		name      string
		s         *Stream
		opts      []Option
		exactPass bool // the refinement is exactly one more pass
	}{
		{"standard", uniformWorkload(t), []Option{WithGrid(LogGrid(1, 50_000, 8)...), WithRefine(4)}, true},
		{"adaptive", twoModeWorkload(t), []Option{WithAdaptive(AdaptiveConfig{Bins: 60}), WithGridPoints(10), WithRefine(2)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var events []ProgressEvent
			plan, err := NewAnalysis(tc.s, append(tc.opts, WithProgress(func(ev ProgressEvent) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			}))...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := plan.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("no progress events")
			}
			maxPass := 0
			done := map[int]int{}
			total := map[int]int{}
			for _, ev := range events {
				if ev.Pass > maxPass {
					maxPass = ev.Pass
				}
				if ev.Stage == ProgressPeriod {
					done[ev.Pass] = ev.PeriodsDone
				}
				total[ev.Pass] = ev.PeriodsTotal
			}
			if maxPass < 1 || (tc.exactPass && maxPass != 1) {
				t.Fatalf("max pass = %d, want 1 (refinement round)", maxPass)
			}
			for pass, tot := range total {
				if done[pass] != tot {
					t.Fatalf("pass %d: PeriodsDone %d never reached PeriodsTotal %d", pass, done[pass], tot)
				}
			}
		})
	}
}

// TestPlanImmutable: mutating the slices handed to the options after
// NewAnalysis must not change what the plan computes.
func TestPlanImmutable(t *testing.T) {
	s := uniformWorkload(t)
	grid := LogGrid(1, 50_000, 8)
	win := Window{Start: 0, End: 25_000, Grid: []int64{5, 50, 500}}
	plan, err := NewAnalysis(s, WithMetrics(MetricOccupancy), WithGrid(grid...), WithWindows(win))
	if err != nil {
		t.Fatal(err)
	}
	refPlan, err := NewAnalysis(s, WithMetrics(MetricOccupancy),
		WithGrid(LogGrid(1, 50_000, 8)...), WithWindows(Window{Start: 0, End: 25_000, Grid: []int64{5, 50, 500}}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		grid[i] = 1 // stomp the caller-owned slices
	}
	win.Grid[0] = 999

	got, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := refPlan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Occupancy(), want.Occupancy()) {
		t.Fatal("plan results changed after mutating the caller's grid slice")
	}
	if !reflect.DeepEqual(got.Window(0), want.Window(0)) {
		t.Fatal("window results changed after mutating the caller's window grid")
	}
}

// TestPlanRerun: a Plan can be run repeatedly, each run independent and
// identical on an unchanged stream.
func TestPlanRerun(t *testing.T) {
	s := uniformWorkload(t)
	plan, err := NewAnalysis(s, WithGrid(LogGrid(1, 50_000, 8)...), WithRefine(2))
	if err != nil {
		t.Fatal(err)
	}
	first, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Occupancy(), second.Occupancy()) {
		t.Fatal("re-running an identical plan changed the results")
	}
}

// TestPlanLaneWidthAndSpeculate pins the new performance knobs at the
// plan level: every lane width returns the identical report, the
// speculative bisection returns the serial bisection's scale and curve,
// and the run's arena accounting balances.
func TestPlanLaneWidthAndSpeculate(t *testing.T) {
	s := twoModeWorkload(t)
	if _, err := NewAnalysis(s, WithLaneWidth(3)); err == nil {
		t.Fatal("lane width 3 must be rejected")
	}
	run := func(opts ...Option) *Report {
		t.Helper()
		plan, err := NewAnalysis(s, append([]Option{WithGridPoints(10), WithRefine(3)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := plan.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ref := run()
	for _, width := range []int{4, 8} {
		rep := run(WithLaneWidth(width))
		if !reflect.DeepEqual(rep.Occupancy(), ref.Occupancy()) || rep.Gamma() != ref.Gamma() {
			t.Fatalf("width %d: report diverged from default width", width)
		}
		st := rep.EngineStats()
		if st.ArenaHanded == 0 || st.ArenaHanded != st.ArenaRecycled {
			t.Fatalf("width %d: arena accounting off: %+v", width, st)
		}
	}
	spec := run(WithSpeculate(true))
	serial := run(WithSpeculate(true), WithLaneWidth(4))
	if !reflect.DeepEqual(spec.Occupancy(), serial.Occupancy()) || spec.Gamma() != serial.Gamma() {
		t.Fatal("speculative reports diverged across widths")
	}
	if spec.Gamma() == 0 || len(spec.Occupancy()) <= len(ref.Occupancy())-2*3 {
		t.Fatalf("speculative run looks degenerate: γ=%d, %d points", spec.Gamma(), len(spec.Occupancy()))
	}
	// Each speculative round is one engine pass, so Refine bounds the
	// refinement passes (serial bisection of the same rounds would need
	// up to two passes per round).
	if got := spec.EngineStats().Passes; got > 1+3 {
		t.Fatalf("speculative run took %d passes, bound is %d", got, 1+3)
	}
}
