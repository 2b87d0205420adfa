package figures

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/validate"
)

// TestFigureSweepsBuildEachPeriodOnce pins the engine guarantee the
// refactor exists for: one figure computation builds each candidate
// period's CSR arena exactly once, however many metrics it feeds —
// Figure 8's occupancy, transition-loss and elongation curves share a
// single pass, as do Figure 2's window statistics and distances.
func TestFigureSweepsBuildEachPeriodOnce(t *testing.T) {
	p := QuickProfile()
	s, err := datasets.Irvine().Stream()
	if err != nil {
		t.Fatal(err)
	}
	s = p.prepare(s)
	gridLen := len(core.LogGrid(MinDelta, s.Duration(), p.GridPoints))

	r8, err := Fig8(p)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Stats.Builds != int64(gridLen) {
		t.Fatalf("Fig8 built %d period CSRs for %d grid entries", r8.Stats.Builds, gridLen)
	}

	r2, err := Fig2(p)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Builds != int64(gridLen) {
		t.Fatalf("Fig2 built %d period CSRs for %d grid entries", r2.Stats.Builds, gridLen)
	}
}

// The quick profile must still reproduce every qualitative finding of
// the paper; these tests are the executable form of EXPERIMENTS.md.

func TestTable1Quick(t *testing.T) {
	r, err := Table1(QuickProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		// All γ in the paper's half-day-to-three-days band, generously
		// widened for the quick subsampled stand-ins.
		if row.GammaHours < 2 || row.GammaHours > 200 {
			t.Errorf("%s: gamma = %.1f h outside plausible band", row.Name, row.GammaHours)
		}
	}
	if !r.ActivityOrderingHolds() {
		t.Errorf("activity ordering violated: %+v", r.Rows)
	}
	out := r.Render()
	if !strings.Contains(out, "irvine") || !strings.Contains(out, "manufacturing") {
		t.Fatalf("render missing datasets:\n%s", out)
	}
}

func TestFig2Quick(t *testing.T) {
	r, err := Fig2(QuickProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !r.MonotoneDrift() {
		t.Fatalf("figure 2 drift violated: first=%+v last=%+v", r.Points[0], r.Points[len(r.Points)-1])
	}
	if out := r.Render(); !strings.Contains(out, "density") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFig3Quick(t *testing.T) {
	r, err := Fig3(QuickProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !r.StretchThenContract() {
		means := make([]float64, 0, len(r.ICDs))
		for _, c := range r.ICDs {
			sum := 0.0
			for _, p := range c.Points {
				sum += p.Y
			}
			means = append(means, sum/float64(len(c.Points)))
		}
		t.Fatalf("ICDs do not stretch then contract; mean occupancies: %v", means)
	}
	if !r.ProximityPeaked() {
		t.Fatalf("proximity curve not peaked: gamma=%d score=%v", r.Gamma, r.Score)
	}
	out := r.RenderICDs() + r.RenderProximity()
	if !strings.Contains(out, "irvine") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFig45Quick(t *testing.T) {
	r, err := Fig45(QuickProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(r.Results))
	}
	for _, res := range r.Results {
		if !res.ProximityPeaked() {
			t.Errorf("%s: proximity curve not peaked", res.Dataset)
		}
		if !res.StretchThenContract() {
			t.Errorf("%s: ICDs do not stretch then contract", res.Dataset)
		}
	}
}

func TestFig6LeftQuick(t *testing.T) {
	r, err := Fig6Left(QuickProfile())
	if err != nil {
		t.Fatal(err)
	}
	slope, dev := r.ProportionalityFit()
	if slope <= 0 {
		t.Fatalf("slope = %v", slope)
	}
	// The paper reports perfect proportionality; grids and seeds leave
	// some wiggle in the quick profile.
	if dev > 0.5 {
		t.Fatalf("max relative deviation = %.0f%%, points: %+v", 100*dev, r.Points)
	}
	// Points are ordered by increasing links-per-pair, i.e. decreasing
	// inter-contact time, so gamma must shrink along the sequence.
	if r.Points[0].Gamma <= r.Points[len(r.Points)-1].Gamma {
		t.Fatalf("gamma should grow with inter-contact time: %+v", r.Points)
	}
}

func TestFig6RightQuick(t *testing.T) {
	r, err := Fig6Right(QuickProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !r.PlateauHolds() {
		t.Fatalf("two-mode plateau violated: %+v", r.Points)
	}
}

func TestFig7Quick(t *testing.T) {
	r, err := Fig7(QuickProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Selections) != 5 {
		t.Fatalf("selections = %d, want 5", len(r.Selections))
	}
	// Paper: the four sane methods agree within a small factor.
	if a := r.Agreement(); a > 4 {
		t.Fatalf("non-degenerate methods disagree by %.1fx: %+v", a, r.Selections)
	}
	if !r.VariationCoefficientDegenerates() {
		t.Errorf("variation coefficient did not degenerate: %+v", r.Selections)
	}
}

func TestFig8Quick(t *testing.T) {
	r, err := Fig8(QuickProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !r.GammaInsideLossRamp() {
		t.Fatalf("gamma not inside the loss ramp: loss@gamma=%.2f curve=%+v", r.LossAtGamma, r.Loss)
	}
	// Paper's Figure 8 right shape: elongation sits near 1 at fine
	// scales and has risen by gamma. (The paper's absolute value < 1.5
	// is specific to the real Irvine trace; the circadian stand-in has
	// faster within-window stream trips, so its ratio at gamma is
	// larger — recorded in EXPERIMENTS.md.)
	first := r.Elongation[0]
	if first.Trips > 0 && first.MeanElongation > 1.5 {
		t.Fatalf("elongation at finest scale = %v, want ~1", first.MeanElongation)
	}
	if r.ElongationAtGamma <= first.MeanElongation {
		t.Fatalf("elongation should have risen by gamma: %v vs %v",
			r.ElongationAtGamma, first.MeanElongation)
	}
	for i := range r.Elongation {
		if r.Elongation[i].Unmatched != 0 {
			t.Fatalf("unmatched trips at delta %d", r.Elongation[i].Delta)
		}
	}
	_ = validate.Options{}
}

func TestRunUnknownName(t *testing.T) {
	var sb strings.Builder
	if err := Run("nope", QuickProfile(), &sb); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestRunTable1(t *testing.T) {
	var sb strings.Builder
	if err := Run("table1", QuickProfile(), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

// TestRunAllQuick executes the entire harness once; it is the
// repository-level golden path for cmd/tsfigures.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	var sb strings.Builder
	if err := RunAll(QuickProfile(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"=== table1", "=== fig2", "=== fig3", "=== fig4+fig5",
		"=== fig6a", "=== fig6b", "=== fig7", "=== fig8",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in RunAll output", want)
		}
	}
}
