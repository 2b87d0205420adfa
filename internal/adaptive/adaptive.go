// Package adaptive implements the extension sketched in the paper's
// conclusion: for link streams with strong temporal heterogeneity, the
// single saturation scale returned by the occupancy method favours the
// high-activity parts of the dynamics (Section 6), so very short active
// periods risk being smoothed out. The proposed enhancement is to
// separate the high-activity periods from the low-activity periods and
// determine an appropriate aggregation scale for each part
// independently — then either aggregate the whole stream at the
// shortest detected scale, or partition the period of study and
// aggregate each part with its own window length.
//
// The segmentation uses a 1-D 2-means clustering of binned event rates
// followed by a minimum-run merge, which recovers the two modes of the
// paper's two-mode benchmark exactly and degrades gracefully on
// homogeneous streams (a single segment).
//
// # The fused engine path
//
// Analyze determines every scale — the global one and one per
// sufficiently populated segment — as one core.Scope each, driven
// together by core.RunScopes: each analysis is a resumable
// core.ScaleSearch, and each round batches the pending sweep requests
// of all still-active searches into a single engine pass. Per round,
// the stream is sorted and canonicalised once and all segments'
// periods share one worker pool and one sweep.Options.MaxInFlight
// in-flight bound; across the whole analysis each (segment, ∆) CSR
// arena is built and swept exactly once, refinement included. The
// default Refine == 0 configuration is exactly one engine pass —
// instead of the one core.SaturationScale pass per segment a
// per-segment implementation performs (the package tests keep one as
// the bit-exact reference).
//
// Coinciding scopes deduplicate inside the engine: on a homogeneous
// stream the single activity segment covers exactly the global scope
// with an identical candidate grid, so every (window, ∆) period is
// built and swept once and its products fan to both searches
// (sweep.RunStats.Dedups counts it; the result is bit-identical to two
// separate sweeps).
package adaptive

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/linkstream"
	"repro/internal/sweep"
)

// Config parameterises the activity segmentation and the candidate
// grids of the adaptive analysis. The zero value picks sensible
// defaults. The scale searches' own knobs (selectors, refinement,
// bisection) and the engine's (orientation, workers, budgets, progress,
// counters) are Analyze's core.Options and sweep.Options arguments.
type Config struct {
	// Bins is the number of equal time bins used to estimate the
	// activity profile (default 100, capped at the stream's time span so
	// no bin is ever empty by construction).
	Bins int
	// MinRunBins is the minimum number of consecutive same-mode bins
	// for a segment; shorter runs are absorbed by their neighbours
	// (default 2).
	MinRunBins int
	// SeparationFactor is the minimum ratio between the two mode
	// centres for the stream to count as two-mode at all; below it the
	// stream is treated as homogeneous (default 3).
	SeparationFactor float64
	// GridPoints is the ∆-sweep resolution per segment (default 24).
	GridPoints int
	// MinDelta, when positive, is the smallest candidate period of the
	// global sweep (default: the stream's resolution). Segment sweeps
	// always start at their own resolution.
	MinDelta int64
}

func (c Config) withDefaults() Config {
	if c.Bins <= 0 {
		c.Bins = 100
	}
	if c.MinRunBins <= 0 {
		c.MinRunBins = 2
	}
	if c.SeparationFactor <= 0 {
		c.SeparationFactor = 3
	}
	if c.GridPoints <= 0 {
		c.GridPoints = 24
	}
	return c
}

// Segment is one maximal run of bins sharing an activity mode.
type Segment struct {
	// Start, End bound the segment in raw time, [Start, End).
	Start        int64 `json:"start"`
	End          int64 `json:"end"`
	HighActivity bool  `json:"high_activity"`
	Events       int   `json:"events"`
	// Bins is the number of activity-profile bins the segment spans.
	Bins int `json:"bins"`
	// Gamma is the per-segment saturation scale (filled by Analyze;
	// 0 if the segment had too few events to analyse).
	Gamma int64 `json:"gamma"`
}

// Analysis is the outcome of the adaptive method.
type Analysis struct {
	// Segments partition the period of study [t0, t1+1).
	Segments []Segment `json:"segments"`
	// TwoMode reports whether two activity modes were detected; if
	// false, Segments has a single entry covering the whole stream.
	TwoMode bool `json:"two_mode"`
	// Global is the plain occupancy-method result on the whole stream,
	// for comparison.
	Global core.Result `json:"global"`
	// GlobalGamma is Global.Gamma, kept for convenience.
	GlobalGamma int64 `json:"global_gamma"`
	// MinGamma is the smallest per-segment scale — the conservative
	// choice if the whole stream must use one window length.
	MinGamma int64 `json:"min_gamma"`
}

// ErrNoEvents mirrors core.ErrNoEvents.
var ErrNoEvents = errors.New("adaptive: stream has no events")

// binCounts histograms the stream's events into up to bins equal time
// bins. The bin count is capped at the stream's span and trailing bins
// past the span are dropped, so every bin intersects the period of
// study and the last bin's start lies strictly before its end.
func binCounts(s *linkstream.Stream, bins int) (counts []int, t0 int64, binLen int64) {
	start, end, _ := s.Span()
	span := end - start + 1
	if int64(bins) > span {
		bins = int(span)
	}
	binLen = (span + int64(bins) - 1) / int64(bins)
	if binLen < 1 {
		binLen = 1
	}
	bins = int((span + binLen - 1) / binLen)
	counts = make([]int, bins)
	for _, e := range s.Events() {
		i := int((e.T - start) / binLen)
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return counts, start, binLen
}

// twoMeans clusters 1-D values into two centres with Lloyd iterations
// seeded at the min and max. It returns the centres (lo <= hi) and the
// assignment (true = hi cluster).
func twoMeans(values []float64) (lo, hi float64, assign []bool) {
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
	}
	lo, hi = mn, mx
	assign = make([]bool, len(values))
	for iter := 0; iter < 50; iter++ {
		var sumLo, sumHi float64
		var nLo, nHi int
		changed := false
		for i, v := range values {
			high := math.Abs(v-hi) < math.Abs(v-lo)
			if assign[i] != high {
				assign[i] = high
				changed = true
			}
			if high {
				sumHi += v
				nHi++
			} else {
				sumLo += v
				nLo++
			}
		}
		if nLo > 0 {
			lo = sumLo / float64(nLo)
		}
		if nHi > 0 {
			hi = sumHi / float64(nHi)
		}
		if !changed && iter > 0 {
			break
		}
	}
	return lo, hi, assign
}

// Segments performs the activity segmentation without computing any
// saturation scale. The returned segments partition [t0, t1+1) exactly:
// they are contiguous, the first starts at the first event time and the
// last ends one past the last event time.
func Segments(s *linkstream.Stream, cfg Config) ([]Segment, bool, error) {
	if s.NumEvents() == 0 {
		return nil, false, ErrNoEvents
	}
	cfg = cfg.withDefaults()
	counts, t0, binLen := binCounts(s, cfg.Bins)
	tEnd := t0 + s.Duration()
	values := make([]float64, len(counts))
	for i, c := range counts {
		values[i] = float64(c)
	}
	lo, hi, assign := twoMeans(values)

	wholeStream := func() []Segment {
		return []Segment{{Start: t0, End: tEnd, Events: s.NumEvents(), HighActivity: true, Bins: len(counts)}}
	}
	if lo <= 0 && hi <= 0 {
		return wholeStream(), false, nil
	}
	if lo > 0 && hi/lo < cfg.SeparationFactor {
		// Modes too close: homogeneous stream.
		return wholeStream(), false, nil
	}

	// Absorb runs shorter than MinRunBins into the surrounding mode.
	smoothed := append([]bool(nil), assign...)
	i := 0
	for i < len(smoothed) {
		j := i
		for j < len(smoothed) && smoothed[j] == smoothed[i] {
			j++
		}
		if j-i < cfg.MinRunBins && (i > 0 || j < len(smoothed)) {
			flip := !smoothed[i]
			for k := i; k < j; k++ {
				smoothed[k] = flip
			}
			// Re-scan from the beginning of the merged run.
			if i > 0 {
				i--
				for i > 0 && smoothed[i-1] == smoothed[i] {
					i--
				}
			}
			continue
		}
		i = j
	}

	var segs []Segment
	i = 0
	for i < len(smoothed) {
		j := i
		ev := 0
		for j < len(smoothed) && smoothed[j] == smoothed[i] {
			ev += counts[j]
			j++
		}
		end := t0 + int64(j)*binLen
		if end > tEnd {
			// The last bin may overrun the period of study by the
			// ceil-rounding slack; clamp so segments partition it.
			end = tEnd
		}
		segs = append(segs, Segment{
			Start:        t0 + int64(i)*binLen,
			End:          end,
			HighActivity: smoothed[i],
			Events:       ev,
			Bins:         j - i,
		})
		i = j
	}
	return segs, len(segs) > 1, nil
}

// minSegmentEvents is the smallest number of events for which a
// per-segment sweep is meaningful.
const minSegmentEvents = 50

// Analyze segments the stream and determines the occupancy-method
// scale of the whole stream and of every sufficiently populated
// segment, all through fused engine passes (core.RunScopes): one pass
// serves every still-active search per round — a single pass in the
// default Refine == 0 configuration. Every search runs with search's
// options (its Grid is replaced by the scope's own) and every pass with
// opt. The global observers ride the global scope's first pass: they
// see the whole stream's view and every period of the global candidate
// grid, so callers collect other curves from the very pass that prices
// the global scale.
func Analyze(ctx context.Context, s *linkstream.Stream, cfg Config, search core.Options, opt sweep.Options, global ...sweep.Observer) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	segs, twoMode, err := Segments(s, cfg)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Segments: segs, TwoMode: twoMode}
	s.Sort()
	events := s.Events()

	newScope := func(start, end int64, grid []int64) (*core.Scope, error) {
		search.Grid = grid
		sc, err := core.NewScaleSearch(search)
		return &core.Scope{Start: start, End: end, Search: sc}, err
	}
	lo := cfg.MinDelta
	if lo <= 0 {
		lo = s.Resolution()
	}
	gscope, err := newScope(0, 0, core.LogGrid(lo, s.Duration(), cfg.GridPoints))
	if err != nil {
		return nil, err
	}
	gscope.Observers = global
	scopes := []*core.Scope{gscope}
	analysed := make([]*Segment, 0, len(a.Segments))
	for i := range a.Segments {
		seg := &a.Segments[i]
		sub := linkstream.WindowEvents(events, seg.Start, seg.End)
		if len(sub) < minSegmentEvents {
			continue
		}
		sc, err := newScope(seg.Start, seg.End, core.LogGrid(linkstream.EventsResolution(sub), linkstream.EventsDuration(sub), cfg.GridPoints))
		if err != nil {
			return nil, fmt.Errorf("adaptive: segment [%d,%d): %w", seg.Start, seg.End, err)
		}
		scopes = append(scopes, sc)
		analysed = append(analysed, seg)
	}
	if err := core.RunScopes(ctx, s, opt, scopes); err != nil {
		return nil, err
	}

	a.Global = gscope.Result
	a.GlobalGamma = gscope.Result.Gamma
	a.MinGamma = a.GlobalGamma
	for i, seg := range analysed {
		seg.Gamma = scopes[i+1].Result.Gamma
		if seg.Gamma < a.MinGamma {
			a.MinGamma = seg.Gamma
		}
	}
	return a, nil
}
