package repro

// Pins for the snapshot-metric surface: the Metric enum round-trips
// through ParseMetrics, plans compute the requested MetricCurves, and
// the wire bytes of a snapshot-metric report are golden-pinned across
// execution knobs, exactly like the classic report goldens. Regenerate
// with:
//
//	go test -run TestSnapshotReportGolden -update-golden

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// snapshotMetricNames is the canonical name set of the snapshot
// metrics, in enum order.
var snapshotMetricNames = []string{"degree", "clustering", "components", "coreness", "weighted"}

func TestParseSnapshotMetrics(t *testing.T) {
	ms, err := ParseMetrics("degree, clustering,components,coreness,weighted")
	if err != nil {
		t.Fatal(err)
	}
	want := []Metric{MetricDegree, MetricClustering, MetricComponents, MetricCoreness, MetricWeighted}
	if len(ms) != len(want) {
		t.Fatalf("parsed %d metrics, want %d", len(ms), len(want))
	}
	for i, m := range ms {
		if m != want[i] {
			t.Fatalf("metric %d = %v, want %v", i, m, want[i])
		}
		if m.String() != snapshotMetricNames[i] {
			t.Fatalf("String() = %q, want %q", m.String(), snapshotMetricNames[i])
		}
	}
	if _, err := ParseMetrics("kcore"); err == nil {
		t.Fatal("unknown metric accepted")
	} else if !contains(err.Error(), "coreness") {
		t.Fatalf("error %q does not list the known metrics", err)
	}
}

// TestPlanSnapshotCurves: a plan with the snapshot metrics yields one
// MetricCurve per metric, in enum order, over the plan's grid — for
// the global scope and for every window.
func TestPlanSnapshotCurves(t *testing.T) {
	s := goldenWorkload(t, 42)
	grid := []int64{500, 2_000, 8_000, 30_000}
	plan, err := NewAnalysis(s,
		WithMetrics(MetricOccupancy, MetricDegree, MetricClustering, MetricComponents, MetricCoreness, MetricWeighted),
		WithGrid(grid...),
		WithWindows(Window{Start: 0, End: 15_000, Grid: grid}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkCurves := func(scope string, snaps []MetricCurve) {
		t.Helper()
		if len(snaps) != len(snapshotMetricNames) {
			t.Fatalf("%s: %d snapshot curves, want %d", scope, len(snaps), len(snapshotMetricNames))
		}
		for i, c := range snaps {
			if c.Metric != snapshotMetricNames[i] {
				t.Errorf("%s: curve %d is %q, want %q (enum order)", scope, i, c.Metric, snapshotMetricNames[i])
			}
			if len(c.Deltas) != len(grid) {
				t.Errorf("%s/%s: %d deltas, want %d", scope, c.Metric, len(c.Deltas), len(grid))
			}
			for _, ser := range c.Series {
				if len(ser.Values) != len(c.Deltas) {
					t.Errorf("%s/%s/%s: %d values for %d deltas", scope, c.Metric, ser.Name, len(ser.Values), len(c.Deltas))
				}
				if ser.Stability < 0 || ser.Stability > 1 {
					t.Errorf("%s/%s/%s: stability %v outside [0, 1]", scope, c.Metric, ser.Name, ser.Stability)
				}
			}
		}
	}
	checkCurves("global", rep.Snapshots())
	if rep.NumWindows() != 1 {
		t.Fatalf("NumWindows = %d, want 1", rep.NumWindows())
	}
	checkCurves("window", rep.Window(0).Curves.Snapshots)

	if _, ok := rep.Snapshot("weighted"); !ok {
		t.Error(`Snapshot("weighted") not found`)
	}
	if _, ok := rep.Snapshot("occupancy"); ok {
		t.Error(`Snapshot("occupancy") reported a curve — occupancy is not a snapshot metric`)
	}

	// The snapshot metrics ride the plan's fused pass: one CSR build
	// per distinct (scope, ∆), however many metrics consume it.
	stats := rep.EngineStats()
	if want := int64(2 * len(grid)); stats.Builds != want {
		t.Errorf("Builds = %d, want %d (global + window grids, one build each)", stats.Builds, want)
	}
}

// TestPlanSnapshotOnly: snapshot metrics work without the occupancy
// method — no scale, curves present.
func TestPlanSnapshotOnly(t *testing.T) {
	plan, err := NewAnalysis(goldenWorkload(t, 42), WithMetrics(MetricDegree), WithGridPoints(5))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Scale(); ok {
		t.Error("snapshot-only plan computed a scale")
	}
	if len(rep.Snapshots()) != 1 || rep.Snapshots()[0].Metric != "degree" {
		t.Fatalf("Snapshots() = %+v, want the degree curve alone", rep.Snapshots())
	}
}

func snapshotSpecForGolden(directed bool) *PlanSpec {
	return &PlanSpec{
		Metrics:    append([]string{"occupancy"}, snapshotMetricNames...),
		Directed:   directed,
		GridPoints: 8,
	}
}

// TestSnapshotReportGolden pins the wire bytes of a snapshot-metric
// report across 3 seeds × directed/undirected × the execution-knob
// matrix, against its own golden set.
func TestSnapshotReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is not -short")
	}
	for _, seed := range []int64{101, 202, 303} {
		for _, directed := range []bool{false, true} {
			name := fmt.Sprintf("snapshots_seed%d_%s", seed, map[bool]string{false: "undirected", true: "directed"}[directed])
			t.Run(name, func(t *testing.T) {
				opts, err := snapshotSpecForGolden(directed).Options()
				if err != nil {
					t.Fatal(err)
				}
				checkReportGolden(t, name, func() *Stream { return goldenWorkload(t, seed) }, opts)
			})
		}
	}
}

// TestSnapshotSpecRoundTrip: a spec carrying the snapshot metrics
// survives JSON and builds a plan equivalent to hand-written options.
func TestSnapshotSpecRoundTrip(t *testing.T) {
	spec := &PlanSpec{
		Metrics:    []string{"degree", "weighted"},
		Directed:   true,
		GridPoints: 5,
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back PlanSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	opts, err := back.Options()
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := NewAnalysis(goldenWorkload(t, 99), opts...)
	if err != nil {
		t.Fatal(err)
	}
	byHand, err := NewAnalysis(goldenWorkload(t, 99),
		WithMetrics(MetricDegree, MetricWeighted),
		WithDirected(true),
		WithGridPoints(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	repSpec, err := fromSpec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	repHand, err := byHand.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(repSpec)
	b, _ := json.Marshal(repHand)
	if !bytes.Equal(a, b) {
		t.Fatalf("spec-built plan diverged from hand-built options:\nspec %s\nhand %s", a, b)
	}
}
