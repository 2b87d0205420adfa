package adaptive

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/linkstream"
	"repro/internal/sweep"
)

// AnalyzeReference is the retained per-segment implementation of
// Analyze: one full occupancy-method search over the whole stream
// plus one pass per sufficiently populated segment, each slicing and
// re-canonicalising its own copy of the events and spinning its own
// engine. It computes exactly what Analyze computes — the equivalence
// tests pin the two bit for bit — at the cost of one engine pass per
// segment instead of one per analysis round. cfg.Stats counts every
// one of those passes.
func AnalyzeReference(s *linkstream.Stream, cfg Config) (*Analysis, error) {
	cfg = cfg.withDefaults()
	ctx := context.Background()
	engOpt := sweep.Options{Directed: cfg.Directed, Workers: cfg.Workers, MaxInFlight: cfg.MaxInFlight, LaneWidth: cfg.LaneWidth, Stats: cfg.Stats}
	scale := func(s *linkstream.Stream, opt core.Options) (core.Result, error) {
		return core.SaturationScaleWith(ctx, opt, func(grid []int64, obs sweep.Observer) error {
			return sweep.Run(ctx, s, grid, engOpt, obs)
		})
	}
	segs, twoMode, err := Segments(s, cfg)
	if err != nil {
		return nil, err
	}
	lo := cfg.MinDelta
	if lo <= 0 {
		lo = s.Resolution()
	}
	opt := cfg.coreOptions(core.LogGrid(lo, s.Duration(), cfg.GridPoints))
	global, err := scale(s, opt)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Segments: segs, TwoMode: twoMode, Global: global, GlobalGamma: global.Gamma}
	a.MinGamma = global.Gamma
	for i := range a.Segments {
		seg := &a.Segments[i]
		sub := s.SliceTime(seg.Start, seg.End)
		if sub.NumEvents() < minSegmentEvents {
			continue
		}
		segOpt := cfg.coreOptions(core.LogGrid(sub.Resolution(), sub.Duration(), cfg.GridPoints))
		res, err := scale(sub, segOpt)
		if err != nil {
			return nil, fmt.Errorf("adaptive: segment [%d,%d): %w", seg.Start, seg.End, err)
		}
		seg.Gamma = res.Gamma
		if res.Gamma < a.MinGamma {
			a.MinGamma = res.Gamma
		}
	}
	return a, nil
}
