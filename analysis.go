package repro

// This file implements the plan/run lifecycle, the package's single
// execution path: NewAnalysis freezes a request — metrics, candidate
// grids, windows, refinement policy, engine budgets — into an immutable
// Plan, and Plan.Run(ctx) executes it as fused sweep-engine passes with
// context cancellation, progress streaming and per-run engine
// statistics. The equivalence tests in analysis_equiv_test.go pin it
// bit-exact with the internal implementation of every metric.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/adaptive"
	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/linkstream"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/validate"
)

// ErrNoEvents is returned when an analysis is requested over a stream
// with no events.
var ErrNoEvents = errors.New("repro: stream has no events")

// Plan is an immutable, validated analysis request: which metrics to
// compute, over which candidate grids and windows, under which
// refinement policy and engine budgets. Build one with NewAnalysis and
// execute it with Run; a Plan can be Run any number of times (each Run
// is an independent execution reading the stream's current contents).
type Plan struct {
	s   *Stream
	col *linkstream.Columnar // non-nil for WithStreamPath columnar plans
	cfg planConfig

	// Lazy whole-file materialisation of a columnar plan's stream, for
	// consumers that need an in-memory Stream (adaptive analysis,
	// ComputeStats); the engine itself never goes through it.
	matOnce sync.Once
	mat     *Stream
	matErr  error

	// Close is idempotent: the mapping is released exactly once however
	// many times (or from however many goroutines) Close is called.
	closeOnce sync.Once
	closeErr  error
}

// NewAnalysis builds an analysis plan over the stream. The zero-option
// plan is the paper's default analysis: the occupancy method over a
// logarithmic candidate grid spanning the stream's resolution to its
// whole period of study, undirected, M-K proximity selection, no
// refinement. Options compose freely — e.g.
//
//	plan, err := repro.NewAnalysis(s,
//	    repro.WithMetrics(repro.MetricOccupancy, repro.MetricTransitionLoss),
//	    repro.WithRefine(4),
//	    repro.WithMaxInFlight(4),
//	    repro.WithProgress(func(ev repro.ProgressEvent) { ... }),
//	)
//	report, err := plan.Run(ctx)
//
// Every metric, window and custom observer of one plan shares a single
// fused engine pass per bisection round: the stream is sorted once,
// each distinct (window, ∆) aggregation is built and swept exactly
// once, and at most the configured MaxInFlight periods are resident at
// any moment.
func NewAnalysis(s *Stream, opts ...Option) (*Plan, error) {
	cfg := planConfig{}
	cfg.metrics[MetricOccupancy] = true // default metric set
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	var col *linkstream.Columnar
	if cfg.streamPath != "" {
		if s != nil {
			return nil, errors.New("repro: WithStreamPath and a non-nil stream are mutually exclusive")
		}
		var err error
		s, col, err = openStreamPath(cfg.streamPath)
		if err != nil {
			return nil, err
		}
	}
	if s == nil && col == nil {
		return nil, errors.New("repro: nil stream")
	}
	numEvents := 0
	if col != nil {
		numEvents = col.NumEvents()
	} else {
		numEvents = s.NumEvents()
	}
	if numEvents == 0 {
		if col != nil {
			col.Close()
		}
		return nil, ErrNoEvents
	}
	if cfg.gridSet && len(cfg.grid) == 0 {
		return nil, errors.New("repro: empty candidate grid")
	}
	if cfg.adaptive != nil {
		switch {
		case len(cfg.windows) > 0:
			return nil, errors.New("repro: WithAdaptive and WithWindows cannot be combined: the adaptive segmentation chooses its own windows")
		case len(cfg.segments) > 0:
			return nil, errors.New("repro: WithAdaptive and WithSegments cannot be combined")
		case cfg.gridSet:
			return nil, errors.New("repro: WithAdaptive derives its own candidate grids; shape them with WithGridPoints and WithMinDelta instead of WithGrid")
		case cfg.histogramBins > 0:
			return nil, errors.New("repro: WithAdaptive does not support the histogram backend")
		}
	}
	if !cfg.gridSet {
		// Resolution/Duration sort an in-memory stream as a side effect,
		// so they are only consulted when a grid must be derived — an
		// explicit WithGrid leaves the stream untouched until Run. The
		// columnar header answers both without touching the columns.
		lo := cfg.minDelta
		if lo <= 0 {
			if col != nil {
				lo = col.Resolution()
			} else {
				lo = s.Resolution()
			}
		}
		points := cfg.gridPoints
		if points <= 0 {
			points = core.DefaultGridPoints
		}
		dur := int64(0)
		if col != nil {
			dur = col.Duration()
		} else {
			dur = s.Duration()
		}
		cfg.grid = core.LogGrid(lo, dur, points)
	}
	if cfg.histogramBins > 0 && cfg.metricOn(MetricOccupancy) {
		for _, sel := range cfg.selectors {
			if _, ok := sel.(dist.MKProximitySelector); !ok {
				return nil, fmt.Errorf("repro: selector %s does not support the histogram backend", sel.Name())
			}
		}
	}
	if cfg.adaptive == nil && !cfg.anyMetric() && len(cfg.observers) == 0 && len(cfg.segments) == 0 {
		return nil, errors.New("repro: analysis plan computes nothing: select metrics, observers or segments")
	}
	if len(cfg.windows) > 0 && !cfg.anyMetric() {
		return nil, errors.New("repro: plan windows need at least one metric")
	}
	if cfg.noGlobal {
		switch {
		case cfg.adaptive != nil:
			return nil, errors.New("repro: WithWindowsOnly and WithAdaptive cannot be combined")
		case len(cfg.windows) == 0:
			return nil, errors.New("repro: WithWindowsOnly needs WithWindows windows to analyse")
		case len(cfg.observers) > 0:
			return nil, errors.New("repro: WithWindowsOnly drops the global scope custom observers attach to")
		}
	}
	return &Plan{s: s, col: col, cfg: cfg}, nil
}

// openStreamPath opens a stream file by its leading magic: columnar
// (LSC) files become a memory-mapped view handed to the engine as-is,
// binary (LSB) and text files are parsed into memory.
func openStreamPath(path string) (*Stream, *linkstream.Columnar, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var magic [4]byte
	n, _ := io.ReadFull(f, magic[:])
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	if n == 4 && linkstream.IsColumnarMagic(magic[:]) {
		f.Close()
		col, err := linkstream.OpenMapped(path)
		if err != nil {
			return nil, nil, err
		}
		return nil, col, nil
	}
	defer f.Close()
	s := NewStream()
	if err := s.ReadAny(f); err != nil {
		return nil, nil, err
	}
	return s, nil, nil
}

// engineSource returns what the engine passes consume: the mapped
// columnar view for WithStreamPath columnar plans (pre-sorted, sliced
// through the file's skip index), the in-memory stream otherwise.
func (p *Plan) engineSource() sweep.StreamSource {
	if p.col != nil {
		return p.col
	}
	return p.s
}

// Stream returns the plan's stream: the one NewAnalysis received, or —
// for a WithStreamPath columnar plan — the file's contents materialised
// into memory (decoded once and cached). The engine does not use this
// path; it exists for consumers that need the whole stream in memory,
// like the adaptive segmentation and ComputeStats.
func (p *Plan) Stream() (*Stream, error) {
	if p.s != nil {
		return p.s, nil
	}
	p.matOnce.Do(func() { p.mat, p.matErr = p.col.Stream() })
	return p.mat, p.matErr
}

// Close releases resources a WithStreamPath plan holds on behalf of
// the caller — the columnar file mapping. Plans over in-memory streams
// hold nothing. Close is idempotent and safe for concurrent use: the
// first call unmaps, every later call returns the same result without
// touching the mapping again.
func (p *Plan) Close() error {
	if p.col == nil {
		return nil
	}
	p.closeOnce.Do(func() { p.closeErr = p.col.Close() })
	return p.closeErr
}

// Run executes the plan and returns its Report. An already-cancelled
// ctx returns ctx.Err() immediately, before the stream is even sorted;
// a ctx cancelled mid-run aborts the engine at its next scheduling
// point — in-flight periods drain, pooled buffers are recycled, the
// worker pools exit before Run returns, and results of periods whose
// observers already ran are simply discarded with the Report.
func (p *Plan) Run(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.cfg.adaptive != nil {
		return p.runAdaptive(ctx)
	}
	return p.runStandard(ctx)
}

// metricObservers is the per-scope set of built-in curve observers a
// plan registers (the occupancy metric is driven separately, through
// core.ScaleSearch, because only it refines).
type metricObservers struct {
	cls   *ClassicObserver
	dst   *DistanceObserver
	loss  *TransitionLossObserver
	elong *ElongationObserver
	deg   *metrics.DegreeObserver
	clu   *metrics.ClusteringObserver
	comp  *metrics.ComponentsObserver
	core  *metrics.CorenessObserver
	wgt   *metrics.WeightedObserver
}

// newMetricObservers returns fresh observers for the plan's non-occupancy
// metrics, plus the registration list in a fixed order.
func (p *Plan) newMetricObservers() (metricObservers, []sweep.Observer) {
	var mo metricObservers
	var obs []sweep.Observer
	if p.cfg.metricOn(MetricClassic) {
		mo.cls = classic.NewObserver()
		obs = append(obs, mo.cls)
	}
	if p.cfg.metricOn(MetricDistance) {
		mo.dst = sweep.NewDistanceObserver()
		obs = append(obs, mo.dst)
	}
	if p.cfg.metricOn(MetricTransitionLoss) {
		mo.loss = validate.NewTransitionLossObserver()
		obs = append(obs, mo.loss)
	}
	if p.cfg.metricOn(MetricElongation) {
		mo.elong = validate.NewElongationObserver()
		mo.elong.SpillBytes = p.cfg.elongSpill
		obs = append(obs, mo.elong)
	}
	if p.cfg.metricOn(MetricDegree) {
		mo.deg = metrics.NewDegreeObserver()
		obs = append(obs, mo.deg)
	}
	if p.cfg.metricOn(MetricClustering) {
		mo.clu = metrics.NewClusteringObserver()
		obs = append(obs, mo.clu)
	}
	if p.cfg.metricOn(MetricComponents) {
		mo.comp = metrics.NewComponentsObserver()
		obs = append(obs, mo.comp)
	}
	if p.cfg.metricOn(MetricCoreness) {
		mo.core = metrics.NewCorenessObserver()
		obs = append(obs, mo.core)
	}
	if p.cfg.metricOn(MetricWeighted) {
		mo.wgt = metrics.NewWeightedObserver()
		obs = append(obs, mo.wgt)
	}
	return mo, obs
}

// curves collects the observers' results after a successful run.
func (mo metricObservers) curves() Curves {
	var cv Curves
	if mo.cls != nil {
		cv.Classic = mo.cls.Points()
	}
	if mo.dst != nil {
		cv.Distance = mo.dst.Points()
	}
	if mo.loss != nil {
		cv.TransitionLoss = mo.loss.Points()
	}
	if mo.elong != nil {
		cv.Elongation = mo.elong.Points()
	}
	// Snapshot-metric curves, in enum order.
	if mo.deg != nil {
		cv.Snapshots = append(cv.Snapshots, mo.deg.Curve())
	}
	if mo.clu != nil {
		cv.Snapshots = append(cv.Snapshots, mo.clu.Curve())
	}
	if mo.comp != nil {
		cv.Snapshots = append(cv.Snapshots, mo.comp.Curve())
	}
	if mo.core != nil {
		cv.Snapshots = append(cv.Snapshots, mo.core.Curve())
	}
	if mo.wgt != nil {
		cv.Snapshots = append(cv.Snapshots, mo.wgt.Curve())
	}
	return cv
}

// coreOptions maps the plan's configuration onto the occupancy-method
// options of one scale search over grid.
func (p *Plan) coreOptions(grid []int64) core.Options {
	return core.Options{
		Directed:      p.cfg.directed,
		Workers:       p.cfg.workers,
		Selectors:     p.cfg.selectors,
		Refine:        p.cfg.refine,
		HistogramBins: p.cfg.histogramBins,
		MaxInFlight:   p.cfg.maxInFlight,
		LaneWidth:     p.cfg.laneWidth,
		Speculate:     p.cfg.speculate,
		Grid:          grid,
	}
}

// windowGrids resolves the candidate grid of every plan window, in
// WithWindows order: an explicit Window.Grid is used as-is, an empty
// one derives a logarithmic grid from the window's own resolution and
// span, exactly like the adaptive per-segment grids. A columnar source
// materialises just each window's span here, through the skip index —
// not the whole file. The shard partitioner (PartitionSpec) calls this
// too, so coordinator-side chunking and a local run resolve identical
// grids.
func (p *Plan) windowGrids() ([][]int64, error) {
	c := &p.cfg
	src := p.engineSource()
	grids := make([][]int64, len(c.windows))
	for i := range c.windows {
		w := &c.windows[i]
		grid := w.Grid
		if len(grid) == 0 {
			sub, _, err := src.EngineEvents(w.Start, w.End, false)
			if err != nil {
				return nil, err
			}
			if len(sub) == 0 {
				return nil, fmt.Errorf("repro: window [%d, %d) has no events", w.Start, w.End)
			}
			points := c.gridPoints
			if points <= 0 {
				points = core.DefaultGridPoints
			}
			grid = core.LogGrid(linkstream.EventsResolution(sub), linkstream.EventsDuration(sub), points)
		}
		grids[i] = grid
	}
	return grids, nil
}

// engineOptions maps the plan's configuration onto the options of its
// fused engine passes, accumulating their counters into stats.
func (p *Plan) engineOptions(stats *EngineStats) sweep.Options {
	c := &p.cfg
	return sweep.Options{
		Directed:      c.directed,
		Workers:       c.workers,
		MaxInFlight:   c.maxInFlight,
		HistogramBins: c.histogramBins,
		LaneWidth:     c.laneWidth,
		Progress:      c.progress,
		Stats:         stats,
	}
}

// runStandard executes the plan's scopes — the global analysis, every
// window, every raw segment — as one fused engine pass per bisection
// round (core.RunScopes).
func (p *Plan) runStandard(ctx context.Context) (*Report, error) {
	c := &p.cfg
	// newScope builds one scope: its occupancy search, if the metric is
	// on, and its curve observers plus extra co-observers.
	newScope := func(start, end int64, grid []int64, extra []sweep.Observer) (*core.Scope, metricObservers, error) {
		mo, mobs := p.newMetricObservers()
		sc := &core.Scope{Start: start, End: end, Grid: grid, Observers: append(mobs, extra...)}
		if c.metricOn(MetricOccupancy) {
			search, err := core.NewScaleSearch(p.coreOptions(grid))
			if err != nil {
				return nil, mo, err
			}
			sc.Search = search
		}
		return sc, mo, nil
	}

	var scopes []*core.Scope
	var curves []metricObservers
	if (c.anyMetric() || len(c.observers) > 0) && !c.noGlobal {
		sc, mo, err := newScope(0, 0, c.grid, c.observers)
		if err != nil {
			return nil, err
		}
		scopes, curves = append(scopes, sc), append(curves, mo)
	}
	if len(c.windows) > 0 {
		grids, err := p.windowGrids()
		if err != nil {
			return nil, err
		}
		for i, w := range c.windows {
			sc, mo, err := newScope(w.Start, w.End, grids[i], nil)
			if err != nil {
				return nil, fmt.Errorf("repro: window [%d, %d): %w", w.Start, w.End, err)
			}
			scopes, curves = append(scopes, sc), append(curves, mo)
		}
	}

	var stats EngineStats
	if err := core.RunScopes(ctx, p.engineSource(), p.engineOptions(&stats), scopes, c.segments...); err != nil {
		return nil, err
	}

	rep := &Report{stats: stats}
	off := len(scopes) - len(c.windows) // 1 when the global scope leads
	for i, sc := range scopes {
		cv := curves[i].curves()
		if sc.HasResult {
			cv.Occupancy = sc.Result.Points
		}
		if i < off {
			rep.global = cv
			rep.scale, rep.hasScale = sc.Result, sc.HasResult
			continue
		}
		w := c.windows[i-off]
		rep.windows = append(rep.windows, WindowReport{Start: w.Start, End: w.End, Scale: sc.Result, Curves: cv})
	}
	return rep, nil
}

// runAdaptive executes the plan through the activity-segmented
// analysis: segmentation, the global scale search, one search per
// sufficiently populated segment, and the plan's other metrics and
// custom observers attached to the global scope — all fused per round.
func (p *Plan) runAdaptive(ctx context.Context) (*Report, error) {
	c := &p.cfg
	acfg := *c.adaptive
	acfg.GridPoints = c.gridPoints
	acfg.MinDelta = c.minDelta
	mo, mobs := p.newMetricObservers()
	// The adaptive segmentation needs the whole stream in memory;
	// columnar plans materialise it once here.
	s, err := p.Stream()
	if err != nil {
		return nil, err
	}
	var stats EngineStats
	a, err := adaptive.Analyze(ctx, s, acfg, p.coreOptions(nil), p.engineOptions(&stats), append(mobs, c.observers...)...)
	if err != nil {
		return nil, err
	}
	cv := mo.curves()
	cv.Occupancy = a.Global.Points
	return &Report{
		scale:    a.Global,
		hasScale: true,
		global:   cv,
		adaptive: a,
		stats:    stats,
	}, nil
}
