package repro

// Cancellation regressions at the plan level: an already-cancelled
// context must surface before the stream is sorted or any engine pass
// starts, and a cancel mid-plan must abort cleanly across passes.

import (
	"context"
	"testing"
)

// beginCounter counts the engine passes that reached its Begin.
type beginCounter struct{ n int }

func (o *beginCounter) Needs() SweepNeeds                { return SweepNeeds{Occupancies: true} }
func (o *beginCounter) Begin(*SweepStreamView) error     { o.n++; return nil }
func (o *beginCounter) ObservePeriod(*SweepPeriod) error { return nil }

func TestPlanRunPreCancelled(t *testing.T) {
	s := NewStream()
	// Out-of-order events: reaching the engine's sort would reorder
	// them in place.
	for _, e := range []struct {
		u, v string
		t    int64
	}{{"a", "b", 30}, {"b", "c", 10}, {"a", "c", 20}} {
		if err := s.Add(e.u, e.v, e.t); err != nil {
			t.Fatal(err)
		}
	}
	// An explicit grid keeps NewAnalysis from deriving one (which would
	// sort the stream while measuring its resolution). The progress
	// hook and the observer's Begin fire as soon as an engine pass
	// starts, so both must stay silent.
	progressed := false
	begins := &beginCounter{}
	plan, err := NewAnalysis(s, WithGrid(1, 5, 25), WithObservers(begins),
		WithProgress(func(ProgressEvent) { progressed = true }))
	if err != nil {
		t.Fatal(err)
	}
	if s.Sorted() {
		t.Fatal("building the plan must not sort the stream")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.Run(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Sorted() {
		t.Fatal("pre-cancelled Run must return before sorting the stream")
	}
	if progressed || begins.n != 0 {
		t.Fatalf("pre-cancelled Run started an engine pass (progress=%v, Begin calls=%d)", progressed, begins.n)
	}

	// Same contract for the adaptive run.
	adPlan, err := NewAnalysis(uniformWorkload(t), WithAdaptive(AdaptiveConfig{GridPoints: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adPlan.Run(ctx); err != context.Canceled {
		t.Fatalf("adaptive err = %v, want context.Canceled", err)
	}
}

// TestPlanRunCancelMidPlan cancels from a progress callback partway
// through the first pass of a refining plan — standard and adaptive —
// and checks the abort is clean and the error is the context's.
func TestPlanRunCancelMidPlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Stream
		opts []Option
	}{
		{"standard", uniformWorkload(t), []Option{WithGrid(LogGrid(1, 50_000, 12)...), WithRefine(4)}},
		{"adaptive", twoModeWorkload(t), []Option{WithAdaptive(AdaptiveConfig{Bins: 60}), WithGridPoints(10), WithRefine(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fired := false
			plan, err := NewAnalysis(tc.s, append(tc.opts,
				WithMaxInFlight(1),
				WithProgress(func(ev ProgressEvent) {
					if ev.Stage == ProgressPeriod && ev.PeriodsDone >= 3 && !fired {
						fired = true
						cancel()
					}
				}),
			)...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := plan.Run(ctx)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rep != nil {
				t.Fatal("cancelled Run must not return a report")
			}
			if !fired {
				t.Fatal("progress hook never fired")
			}
		})
	}
}
