package serve

import (
	"reflect"
	"strings"
	"testing"

	"repro"
)

// fullSpec exercises every PlanSpec field at once.
func fullSpec() *repro.PlanSpec {
	return &repro.PlanSpec{
		Stream: &repro.StreamRef{
			Path:    "campus/rollernet.lsc",
			Hash:    "deadbeef",
			TimeMin: 5,
			TimeMax: 50_000,
			Events:  1234,
		},
		Metrics:         []string{"occupancy", "classic", "loss"},
		Selectors:       []string{"mk-proximity", "shannon-entropy"},
		Directed:        true,
		Grid:            []int64{60, 600, 3600},
		GridPoints:      24,
		MinDelta:        30,
		Refine:          4,
		HistogramBins:   50,
		Windows:         []repro.Window{{Start: 0, End: 20_000}, {Start: 20_000, End: 50_000, Grid: []int64{60}}},
		Adaptive:        &repro.AdaptiveSpec{Bins: 96, MinRunBins: 3, SeparationFactor: 2},
		Workers:         3,
		MaxInFlight:     2,
		LaneWidth:       8,
		Speculate:       true,
		ElongationSpill: 1 << 20,
	}
}

func TestPlanCodecRoundTrip(t *testing.T) {
	for name, spec := range map[string]*repro.PlanSpec{
		"full":   fullSpec(),
		"zero":   {},
		"inline": {Inline: []repro.InlineEvent{{U: "a", V: "b", T: 1}, {U: "b", V: "c", T: 2}}},
	} {
		t.Run(name, func(t *testing.T) {
			data, err := EncodePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodePlan(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, spec) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, spec)
			}
			// Encoding is deterministic.
			again, err := EncodePlan(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(data) {
				t.Fatalf("re-encode differs:\n got %s\nwant %s", again, data)
			}
		})
	}
}

func TestPlanCodecRejectsVersions(t *testing.T) {
	for _, msg := range []string{
		`{"v":2,"plan":{}}`,
		`{"v":0,"plan":{}}`,
		`{"plan":{}}`,
		`{"v":-1,"plan":{}}`,
	} {
		_, err := DecodePlan([]byte(msg))
		if err == nil {
			t.Fatalf("decoded %s without error", msg)
		}
		if !strings.Contains(err.Error(), "v: unsupported codec version") {
			t.Fatalf("version error does not name the field: %v", err)
		}
		if !strings.Contains(err.Error(), "this build speaks 1") {
			t.Fatalf("version error does not say what this build speaks: %v", err)
		}
	}
}

func TestPlanCodecStrictness(t *testing.T) {
	cases := map[string]string{
		"unknown envelope field": `{"v":1,"plan":{},"extra":1}`,
		"unknown spec field":     `{"v":1,"plan":{"gamma_please":9000}}`,
		"missing payload":        `{"v":1}`,
		"wrong payload kind":     `{"v":1,"report":{}}`,
		"trailing garbage":       `{"v":1,"plan":{}}{"v":1}`,
		"truncated":              `{"v":1,"plan":{"metrics":["occ`,
		"not json":               `gamma`,
		"empty":                  ``,
	}
	for name, msg := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodePlan([]byte(msg)); err == nil {
				t.Fatalf("decoded %q without error", msg)
			}
		})
	}
}

func TestProgressCodecRoundTrip(t *testing.T) {
	ev := repro.ProgressEvent{
		Pass:         2,
		Stage:        repro.ProgressPeriod,
		Delta:        3600,
		PeriodsDone:  5,
		PeriodsTotal: 24,
		Builds:       7,
		Dedups:       1,
		StreamBuilds: 2,
	}
	data, err := EncodeProgress(ev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProgress(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != ev {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, ev)
	}
	// Stage travels by name, not ordinal.
	if !strings.Contains(string(data), `"stage":"period"`) {
		t.Fatalf("stage not encoded by name: %s", data)
	}
	if _, err := DecodeProgress([]byte(`{"v":1,"progress":{"stage":"warp-drive"}}`)); err == nil {
		t.Fatal("unknown stage name decoded without error")
	}
}

func TestSpecKeyIgnoresExecutionKnobs(t *testing.T) {
	base := fullSpec()
	key, err := SpecKey(base, "columnar:abc")
	if err != nil {
		t.Fatal(err)
	}
	variant := fullSpec()
	variant.Workers = 11
	variant.MaxInFlight = 7
	variant.LaneWidth = 4
	variant.ElongationSpill = 0
	got, err := SpecKey(variant, "columnar:abc")
	if err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Fatal("execution knobs changed the result key; they must not — results are pinned bit-identical across them")
	}
}

func TestSpecKeySensitivity(t *testing.T) {
	base := fullSpec()
	baseKey, err := SpecKey(base, "columnar:abc")
	if err != nil {
		t.Fatal(err)
	}
	mutate := map[string]func(*repro.PlanSpec) string{
		"stream":   func(s *repro.PlanSpec) string { return "columnar:other" },
		"directed": func(s *repro.PlanSpec) string { s.Directed = false; return "columnar:abc" },
		"metrics":  func(s *repro.PlanSpec) string { s.Metrics = []string{"occupancy"}; return "columnar:abc" },
		"selectors": func(s *repro.PlanSpec) string {
			s.Selectors = []string{"shannon-entropy", "mk-proximity"}
			return "columnar:abc"
		},
		"grid":      func(s *repro.PlanSpec) string { s.Grid = []int64{60}; return "columnar:abc" },
		"min delta": func(s *repro.PlanSpec) string { s.MinDelta = 31; return "columnar:abc" },
		"refine":    func(s *repro.PlanSpec) string { s.Refine = 5; return "columnar:abc" },
		"speculate": func(s *repro.PlanSpec) string { s.Speculate = false; return "columnar:abc" },
		"windows":   func(s *repro.PlanSpec) string { s.Windows = s.Windows[:1]; return "columnar:abc" },
		"adaptive":  func(s *repro.PlanSpec) string { s.Adaptive = nil; return "columnar:abc" },
	}
	for name, mut := range mutate {
		s := fullSpec()
		id := mut(s)
		got, err := SpecKey(s, id)
		if err != nil {
			t.Fatal(err)
		}
		if got == baseKey {
			t.Fatalf("mutating %s did not change the result key", name)
		}
	}
	// Without refinement Speculate changes nothing, so it must not split
	// the cache.
	plain, spec := fullSpec(), fullSpec()
	plain.Refine, spec.Refine = 0, 0
	plain.Speculate = false
	kp, err := SpecKey(plain, "columnar:abc")
	if err != nil {
		t.Fatal(err)
	}
	ks, err := SpecKey(spec, "columnar:abc")
	if err != nil {
		t.Fatal(err)
	}
	if kp != ks {
		t.Fatal("Speculate changed the result key of a Refine=0 spec")
	}
}

func TestSpecKeyMetricsCanonical(t *testing.T) {
	a := &repro.PlanSpec{Metrics: []string{"loss", "occupancy", "classic"}}
	b := &repro.PlanSpec{Metrics: []string{"classic", "loss", "occupancy"}}
	ka, err := SpecKey(a, "s")
	if err != nil {
		t.Fatal(err)
	}
	kb, err := SpecKey(b, "s")
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("metric order changed the key; metrics are a set")
	}
	// nil metrics and explicit occupancy coincide (the default set).
	kNil, err := SpecKey(&repro.PlanSpec{}, "s")
	if err != nil {
		t.Fatal(err)
	}
	kOcc, err := SpecKey(&repro.PlanSpec{Metrics: []string{"occupancy"}}, "s")
	if err != nil {
		t.Fatal(err)
	}
	if kNil != kOcc {
		t.Fatal("nil metrics and explicit occupancy produced different keys")
	}
}

func TestInlineHash(t *testing.T) {
	evs := []repro.InlineEvent{{U: "a", V: "b", T: 1}, {U: "b", V: "c", T: 2}}
	h1 := InlineHash(evs)
	h2 := InlineHash([]repro.InlineEvent{{U: "a", V: "b", T: 1}, {U: "b", V: "c", T: 2}})
	if h1 != h2 {
		t.Fatal("identical events hashed differently")
	}
	if h1 == InlineHash(evs[:1]) {
		t.Fatal("prefix hashed the same as the full stream")
	}
	// Names are quoted: ("a b","c") and ("a","b c") must not collide.
	x := InlineHash([]repro.InlineEvent{{U: "a b", V: "c", T: 1}})
	y := InlineHash([]repro.InlineEvent{{U: "a", V: "b c", T: 1}})
	if x == y {
		t.Fatal("ambiguous event encodings collided")
	}
	if !strings.HasPrefix(h1, "inline:") {
		t.Fatalf("inline hash %q lacks its namespace prefix", h1)
	}
}
