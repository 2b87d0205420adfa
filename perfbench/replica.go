package main

// The traced job. Plan.Run builds its observers internally, so a
// traced job cannot wrap them; instead replica executes a PlanSpec the
// way Plan.Run does — the same scale searches, observer constructors,
// fused engine passes and report — from the program's public pieces,
// with a span around every layer call. The report it encodes and the
// engine statistics it collects must equal an untraced Plan.Run's;
// every traced job checks that, so the spans describe the real job.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/linkstream"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/temporal"
	"repro/internal/validate"
)

// engineSource is what a replica reads: a columnar file or an
// in-memory stream.
type engineSource interface {
	sweep.StreamSource
	Resolution() int64
	Duration() int64
}

// replica holds one traced job's tracer state.
type replica struct {
	t    *tracer
	job  string
	pass atomic.Int64 // span of the engine pass in progress

	mu      sync.Mutex
	periods []probePeriod // periods the occupancy observers scored
}

// probePeriod is one (scope, ∆) period the engine built and swept.
type probePeriod struct {
	start, end, t0, delta int64
}

// scope mirrors Plan.Run's per-scope state: the global analysis or one
// window.
type scope struct {
	window *repro.Window
	grid   []int64
	search *core.ScaleSearch
	extra  []sweep.Observer
	curves func() repro.Curves
	res    core.Result
	hasRes bool
	done   bool
}

// observerLayer names the span of a built-in observer by the module
// that implements it.
func observerLayer(o sweep.Observer) string {
	switch o.(type) {
	case *core.OccupancyObserver:
		return "core.observe"
	case *classic.Observer:
		return "classic.observe"
	case *sweep.DistanceObserver:
		return "sweep.distance_observe"
	case *validate.TransitionLossObserver, *validate.ElongationObserver:
		return "validate.observe"
	default:
		return "metrics.observe"
	}
}

func (r *replica) wrap(o sweep.Observer, start, end int64) sweep.Observer {
	w := &tracedObserver{inner: o, t: r.t, name: observerLayer(o), runs: "validate.stream_trip", job: r.job, parent: &r.pass}
	if _, ok := o.(*core.OccupancyObserver); ok {
		w.onPer = func(p *sweep.Period) {
			r.mu.Lock()
			r.periods = append(r.periods, probePeriod{start, end, p.T0, p.Delta})
			r.mu.Unlock()
		}
	}
	return w
}

// newObservers returns the built-in curve observers of the non-occupancy
// metrics, in Plan.Run's registration order, and the function that
// collects their curves.
func newObservers(on map[repro.Metric]bool, elongSpill int64) ([]sweep.Observer, func() repro.Curves) {
	var obs []sweep.Observer
	var collect []func(*repro.Curves)
	if on[repro.MetricClassic] {
		o := classic.NewObserver()
		obs = append(obs, o)
		collect = append(collect, func(c *repro.Curves) { c.Classic = o.Points() })
	}
	if on[repro.MetricDistance] {
		o := sweep.NewDistanceObserver()
		obs = append(obs, o)
		collect = append(collect, func(c *repro.Curves) { c.Distance = o.Points() })
	}
	if on[repro.MetricTransitionLoss] {
		o := validate.NewTransitionLossObserver()
		obs = append(obs, o)
		collect = append(collect, func(c *repro.Curves) { c.TransitionLoss = o.Points() })
	}
	if on[repro.MetricElongation] {
		o := validate.NewElongationObserver()
		o.SpillBytes = elongSpill
		obs = append(obs, o)
		collect = append(collect, func(c *repro.Curves) { c.Elongation = o.Points() })
	}
	type curveObserver interface {
		sweep.Observer
		Curve() metrics.Curve
	}
	for _, m := range []struct {
		metric repro.Metric
		new    func() curveObserver
	}{
		{repro.MetricDegree, func() curveObserver { return metrics.NewDegreeObserver() }},
		{repro.MetricClustering, func() curveObserver { return metrics.NewClusteringObserver() }},
		{repro.MetricComponents, func() curveObserver { return metrics.NewComponentsObserver() }},
		{repro.MetricCoreness, func() curveObserver { return metrics.NewCorenessObserver() }},
		{repro.MetricWeighted, func() curveObserver { return metrics.NewWeightedObserver() }},
	} {
		if on[m.metric] {
			o := m.new()
			obs = append(obs, o)
			collect = append(collect, func(c *repro.Curves) { c.Snapshots = append(c.Snapshots, o.Curve()) })
		}
	}
	return obs, func() repro.Curves {
		var c repro.Curves
		for _, f := range collect {
			f(&c)
		}
		return c
	}
}

// reportWire is the JSON shape Report.UnmarshalJSON reads.
type reportWire struct {
	Scale   *core.Result         `json:"scale,omitempty"`
	Global  repro.Curves         `json:"global"`
	Windows []repro.WindowReport `json:"windows,omitempty"`
}

// run executes spec over src under root and returns the encoded report
// and the run's engine statistics.
func (r *replica) run(ctx context.Context, spec *repro.PlanSpec, src engineSource, root int64) ([]byte, repro.EngineStats, error) {
	var stats repro.EngineStats
	if spec.Adaptive != nil || spec.WindowsOnly || spec.HistogramBins != 0 || spec.Directed {
		return nil, stats, errors.New("perfbench: replica covers undirected, non-adaptive, exact-occupancy specs")
	}
	traced := &tracedSource{inner: src, t: r.t, job: r.job, parent: &r.pass}
	var scopes []*scope
	var rep reportWire
	err := r.t.do("repro.plan", r.job, root, func(id int64) error {
		ms := []repro.Metric{repro.MetricOccupancy}
		if len(spec.Metrics) > 0 {
			var err error
			if ms, err = repro.ParseMetrics(strings.Join(spec.Metrics, ",")); err != nil {
				return err
			}
		}
		on := map[repro.Metric]bool{}
		for _, m := range ms {
			on[m] = true
		}
		sels, err := repro.ParseSelectors(spec.Selectors)
		if err != nil {
			return err
		}
		points := spec.GridPoints
		if points <= 0 {
			points = core.DefaultGridPoints
		}
		grid := spec.Grid
		if len(grid) == 0 {
			lo := spec.MinDelta
			if lo <= 0 {
				lo = src.Resolution()
			}
			grid = core.LogGrid(lo, src.Duration(), points)
		}
		newScope := func(w *repro.Window, grid []int64) (*scope, error) {
			sc := &scope{window: w, grid: grid}
			if on[repro.MetricOccupancy] {
				s, err := core.NewScaleSearch(core.Options{
					Workers: spec.Workers, Selectors: sels, Refine: spec.Refine,
					MaxInFlight: spec.MaxInFlight, LaneWidth: spec.LaneWidth,
					Speculate: spec.Speculate, Grid: grid,
				})
				if err != nil {
					return nil, err
				}
				sc.search = s
			}
			sc.extra, sc.curves = newObservers(on, spec.ElongationSpill)
			return sc, nil
		}
		sc, err := newScope(nil, grid)
		if err != nil {
			return err
		}
		scopes = append(scopes, sc)
		r.pass.Store(id)
		for i := range spec.Windows {
			w := &spec.Windows[i]
			wgrid := w.Grid
			if len(wgrid) == 0 {
				sub, _, err := traced.EngineEvents(w.Start, w.End, false)
				if err != nil {
					return err
				}
				if len(sub) == 0 {
					return fmt.Errorf("perfbench: window [%d, %d) has no events", w.Start, w.End)
				}
				wgrid = core.LogGrid(linkstream.EventsResolution(sub), linkstream.EventsDuration(sub), points)
			}
			sc, err := newScope(w, wgrid)
			if err != nil {
				return err
			}
			scopes = append(scopes, sc)
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}

	opt := sweep.Options{Workers: spec.Workers, MaxInFlight: spec.MaxInFlight, LaneWidth: spec.LaneWidth, Stats: &stats}
	err = r.t.do("repro.run", r.job, root, func(runID int64) error {
		for round := 0; ; round++ {
			var segs []sweep.SegmentObserver
			var waiting []*scope
			for _, sc := range scopes {
				if sc.done {
					continue
				}
				var obs []sweep.Observer
				var start, end int64
				if sc.window != nil {
					start, end = sc.window.Start, sc.window.End
				}
				grid := sc.grid
				if sc.search != nil {
					g, o, ok := sc.search.Next()
					if !ok {
						res, err := sc.search.Result()
						if err != nil {
							return err
						}
						sc.res, sc.hasRes, sc.done = res, true, true
						continue
					}
					grid = g
					obs = append(obs, r.wrap(o, start, end))
				}
				if round == 0 {
					for _, o := range sc.extra {
						obs = append(obs, r.wrap(o, start, end))
					}
				}
				if len(obs) == 0 {
					sc.done = true
					continue
				}
				segs = append(segs, sweep.SegmentObserver{Start: start, End: end, Grid: grid, Observers: obs})
				waiting = append(waiting, sc)
			}
			if len(segs) == 0 {
				return nil
			}
			err := r.t.do("core.round", r.job, runID, func(roundID int64) error {
				err := r.t.do("sweep.pass", r.job, roundID, func(passID int64) error {
					r.pass.Store(passID)
					return sweep.RunSource(ctx, traced, opt, segs...)
				})
				if err != nil {
					return err
				}
				for _, sc := range waiting {
					if sc.search == nil {
						sc.done = true
					} else if err := sc.search.Absorb(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, stats, err
	}

	for _, sc := range scopes {
		cv := sc.curves()
		if sc.hasRes {
			cv.Occupancy = sc.res.Points
		}
		if sc.window == nil {
			rep.Global = cv
			if sc.hasRes {
				res := sc.res
				rep.Scale = &res
			}
		} else {
			rep.Windows = append(rep.Windows, repro.WindowReport{Start: sc.window.Start, End: sc.window.End, Scale: sc.res, Curves: cv})
		}
	}
	var out []byte
	err = r.t.do("repro.encode", r.job, root, func(int64) error {
		raw, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		var report repro.Report
		if err := json.Unmarshal(raw, &report); err != nil {
			return err
		}
		out, err = serve.EncodeReport(&report)
		return err
	})
	return out, stats, err
}

// probeCounts are the temporal layer's work counts from a probe.
type probeCounts struct {
	trips, edges int64
}

// probe replays the temporal layer's per-period work — bucket + CSR
// build, then the lane relax kernel over every destination block — for
// each period the job's occupancy observers scored, serially, with a
// span around each call. The engine runs these kernels inside its own
// pass, where the benchmark cannot reach them without tracing inside
// the program.
func (r *replica) probe(src sweep.StreamSource) (probeCounts, error) {
	var pc probeCounts
	n := src.NumNodes()
	var scratch temporal.CSRScratch
	err := r.t.do("temporal.probe", r.job, 0, func(id int64) error {
		events := map[[2]int64][]linkstream.Event{}
		for _, p := range r.periods {
			key := [2]int64{p.start, p.end}
			ev, ok := events[key]
			if !ok {
				var err error
				if ev, _, err = src.EngineEvents(p.start, p.end, true); err != nil {
					return err
				}
				events[key] = ev
			}
			var c *temporal.CSR
			r.t.do("temporal.build", r.job, id, func(int64) error {
				c = temporal.BuildCSRArena(ev, p.t0, p.delta, n, &scratch)
				return nil
			})
			pc.edges += int64(c.NumEdges())
			w := temporal.NewWorkerWidth(n, 0)
			r.t.do("temporal.relax", r.job, id, func(int64) error {
				for b := 0; b < temporal.DestBlocksFor(n, w.Width()); b++ {
					w.SweepOccupancyBlock(c, false, b)
				}
				return nil
			})
			chunks, total := w.TakeOccupancies()
			pc.trips += int64(total)
			temporal.RecycleOccupancies(chunks)
			w.Release()
			temporal.RecycleCSR(c)
		}
		return nil
	})
	return pc, err
}
