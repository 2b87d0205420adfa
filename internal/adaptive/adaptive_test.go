package adaptive

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/synth"
)

// twoModeStream alternates dense and sparse halves with a sharp rate
// contrast, so the segmentation ground truth is known.
func twoModeStream(t *testing.T) *linkstream.Stream {
	t.Helper()
	s, err := synth.TwoMode(synth.TwoModeConfig{
		Nodes: 12, N1: 20, N2: 1, T1: 5000, T2: 5000, Alternations: 4, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentsTwoMode(t *testing.T) {
	s := twoModeStream(t)
	segs, twoMode, err := Segments(s, Config{Bins: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !twoMode {
		t.Fatalf("two-mode stream not detected: %+v", segs)
	}
	// 4 alternations of high+low = 8 segments (boundary bins may merge
	// the trailing low period, allow 6..9).
	if len(segs) < 6 || len(segs) > 9 {
		t.Fatalf("segments = %d: %+v", len(segs), segs)
	}
	// Segments must alternate and partition the span.
	for i := 1; i < len(segs); i++ {
		if segs[i].HighActivity == segs[i-1].HighActivity {
			t.Fatalf("segments %d and %d share a mode: %+v", i-1, i, segs)
		}
		if segs[i].Start != segs[i-1].End {
			t.Fatalf("segments not contiguous at %d: %+v", i, segs)
		}
	}
	// High segments must be denser than low ones.
	var hiRate, loRate float64
	for _, seg := range segs {
		rate := float64(seg.Events) / float64(seg.End-seg.Start)
		if seg.HighActivity {
			hiRate += rate
		} else {
			loRate += rate
		}
	}
	if hiRate <= loRate {
		t.Fatalf("high-activity segments not denser: hi=%v lo=%v", hiRate, loRate)
	}
}

func TestSegmentsHomogeneous(t *testing.T) {
	s, err := synth.TimeUniform(synth.TimeUniformConfig{
		Nodes: 10, LinksPerPair: 10, T: 10_000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	segs, twoMode, err := Segments(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if twoMode {
		t.Fatalf("uniform stream misclassified as two-mode: %+v", segs)
	}
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	if segs[0].Events != s.NumEvents() {
		t.Fatalf("single segment events = %d, want %d", segs[0].Events, s.NumEvents())
	}
}

func TestSegmentsEmpty(t *testing.T) {
	if _, _, err := Segments(linkstream.New(), Config{}); !errors.Is(err, ErrNoEvents) {
		t.Fatalf("err = %v, want ErrNoEvents", err)
	}
}

func TestAnalyzeTwoMode(t *testing.T) {
	s := twoModeStream(t)
	a, err := Analyze(context.Background(), s, Config{Bins: 80, GridPoints: 12}, core.Options{}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.TwoMode {
		t.Fatal("two-mode not detected")
	}
	if a.GlobalGamma <= 0 {
		t.Fatalf("global gamma = %d", a.GlobalGamma)
	}
	if a.MinGamma > a.GlobalGamma {
		t.Fatalf("min gamma %d exceeds global %d", a.MinGamma, a.GlobalGamma)
	}
	// Paper's motivation: the high-activity mode needs a smaller scale
	// than the low-activity mode.
	var hiGamma, loGamma int64
	for _, seg := range a.Segments {
		if seg.Gamma == 0 {
			continue
		}
		if seg.HighActivity && (hiGamma == 0 || seg.Gamma < hiGamma) {
			hiGamma = seg.Gamma
		}
		if !seg.HighActivity && seg.Gamma > loGamma {
			loGamma = seg.Gamma
		}
	}
	if hiGamma == 0 {
		t.Fatalf("no analysed high-activity segment: %+v", a.Segments)
	}
	if loGamma > 0 && hiGamma >= loGamma {
		t.Fatalf("high-activity gamma %d should be below low-activity gamma %d", hiGamma, loGamma)
	}
}

func TestAnalyzeHomogeneousMatchesGlobal(t *testing.T) {
	s, err := synth.TimeUniform(synth.TimeUniformConfig{
		Nodes: 10, LinksPerPair: 8, T: 10_000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(context.Background(), s, Config{GridPoints: 12}, core.Options{}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TwoMode {
		t.Fatal("uniform stream misclassified")
	}
	if len(a.Segments) != 1 {
		t.Fatalf("segments = %d", len(a.Segments))
	}
	// The single segment covers the whole stream, so its gamma should
	// be close to the global one (grids differ slightly at endpoints).
	seg := a.Segments[0].Gamma
	if seg == 0 {
		t.Fatal("segment not analysed")
	}
	ratio := float64(seg) / float64(a.GlobalGamma)
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("segment gamma %d too far from global %d", seg, a.GlobalGamma)
	}
}

func TestTwoMeans(t *testing.T) {
	lo, hi, assign := twoMeans([]float64{1, 1, 1, 10, 10, 11})
	if lo > 2 || hi < 9 {
		t.Fatalf("centres = %v, %v", lo, hi)
	}
	want := []bool{false, false, false, true, true, true}
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("assign = %v, want %v", assign, want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Bins != 100 || c.MinRunBins != 2 || c.GridPoints != 24 || c.SeparationFactor != 3 {
		t.Fatalf("defaults = %+v", c)
	}
	c2 := Config{Bins: 5, MinRunBins: 1, GridPoints: 8, SeparationFactor: 2}.withDefaults()
	if c2.Bins != 5 || c2.MinRunBins != 1 || c2.GridPoints != 8 || c2.SeparationFactor != 2 {
		t.Fatalf("overrides lost: %+v", c2)
	}
}
