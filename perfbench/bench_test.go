package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro"
	"repro/internal/linkstream"
	"repro/internal/synth"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 10; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]time.Duration{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
	p50, p90, n := latency([]time.Duration{4e6, 1e6, 3e6, 2e6})
	if p50 != 2 || p90 != 4 || n != 4 {
		t.Errorf("latency = %v ms, %v ms, %v samples; want 2, 4, 4", p50, p90, n)
	}
}

func TestUnionLength(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {20, 25}}, 15},     // disjoint
		{[][2]int64{{5, 15}, {0, 10}}, 15},      // overlapping, unsorted
		{[][2]int64{{0, 20}, {5, 10}}, 20},      // nested
		{[][2]int64{{0, 10}, {10, 12}}, 12},     // touching
		{[][2]int64{{0, 4}, {2, 6}, {8, 9}}, 7}, // chain then gap
	} {
		if got := unionLength(c.iv); got != c.want {
			t.Errorf("unionLength(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "pass", Start: 10, End: 90},
		// Two workers' observer calls overlap: the pass loses their union.
		{ID: 3, Parent: 2, Name: "observe", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "observe", Start: 40, End: 60},
		// A child running past its parent's end is clipped to it.
		{ID: 5, Parent: 2, Name: "observe", Start: 85, End: 95},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"job": 20, "pass": 80 - 40 - 5, "observe": 30 + 20 + 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

// tinyStream is a small message network: every metric runs on it in
// milliseconds.
func tinyStream(t *testing.T) *linkstream.Stream {
	t.Helper()
	s, err := synth.MessageNetwork(synth.MessageConfig{Nodes: 14, Days: 4, MsgsPerPersonDay: 3, Seed: 5,
		ActivityExponent: 0.8, Reciprocity: 0.4, PartnerAffinity: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReplicaTransparent checks that a traced job — wrapped observers,
// source and scale-search rounds — encodes the same report and does
// the same engine work as an untraced Plan.Run, for every metric, a
// window and refinement, over an in-memory and a mapped stream.
func TestReplicaTransparent(t *testing.T) {
	ctx := context.Background()
	s := tinyStream(t)
	t0, t1, _ := s.Span()
	spec := &repro.PlanSpec{
		Metrics: []string{"occupancy", "classic", "distance", "loss", "elongation",
			"degree", "clustering", "components", "coreness", "weighted"},
		GridPoints: 6,
		Refine:     2,
		Windows:    []repro.Window{{Start: t0, End: t0 + (t1-t0)/2}},
	}
	path := t.TempDir() + "/tiny.lsc"
	if _, err := writeColumnar(s, path); err != nil {
		t.Fatal(err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := repro.NewAnalysis(s, opts...)
	want, wantStats, err := planJob(ctx, plan, err)
	if err != nil {
		t.Fatal(err)
	}

	col, err := linkstream.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	for name, src := range map[string]engineSource{"memory": s, "mapped": col} {
		r := &replica{t: newTracer(), job: "j"}
		got, stats, err := r.run(ctx, spec, src, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: traced report differs from Plan.Run's", name)
		}
		if name == "memory" && !sameWork(stats, wantStats) {
			t.Errorf("%s: traced engine stats %+v, untraced %+v", name, stats, wantStats)
		}
		counts := spanCounts(r.t.snapshot())
		for _, layer := range []string{"repro.plan", "core.round", "sweep.pass", "core.observe", "classic.observe",
			"sweep.distance_observe", "validate.observe", "validate.stream_trip", "metrics.observe", "repro.encode"} {
			if counts[layer] == 0 {
				t.Errorf("%s: no %s span", name, layer)
			}
		}
		if counts["core.round"] != int(stats.Passes) {
			t.Errorf("%s: %d rounds for %d engine passes", name, counts["core.round"], stats.Passes)
		}
		pc, err := r.probe(src)
		if err != nil || pc.trips == 0 || pc.edges == 0 {
			t.Errorf("%s: probe counted %+v (%v)", name, pc, err)
		}
	}
}

// TestHTTPSpansNest checks that a traced round trip and the handler
// span it causes nest, and that the response bytes are counted.
func TestHTTPSpansNest(t *testing.T) {
	tr := newTracer()
	srv := httptest.NewServer(tracedHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "partial")
	}), tr, "handler"))
	defer srv.Close()
	tt := &tracedTransport{inner: http.DefaultTransport, t: tr, name: "rtt", job: "j", parent: 7}
	got, _, err := post(context.Background(), &http.Client{Transport: tt}, srv.URL, []byte("{}"))
	if err != nil || string(got) != "partial" {
		t.Fatalf("post = %q, %v", got, err)
	}
	if n := tt.bytes.Load(); n != int64(len("partial")) {
		t.Errorf("counted %d response bytes, want %d", n, len("partial"))
	}
	spans := map[string]span{}
	for _, s := range tr.snapshot() {
		spans[s.Name] = s
	}
	rtt, h := spans["rtt"], spans["handler"]
	if rtt.Parent != 7 || h.Parent != rtt.ID || h.Job != "j" || h.Start < rtt.Start || h.End > rtt.End {
		t.Errorf("spans do not nest: rtt %+v, handler %+v", rtt, h)
	}
	// Requests without the span header pass through unrecorded.
	if _, _, err := post(context.Background(), http.DefaultClient, srv.URL, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.snapshot()); n != 2 {
		t.Errorf("%d spans after an untraced request, want 2", n)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists equal to the
// ones the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
}
