package sweep

// This file implements windowed observer registration: one engine pass
// over the stream can serve several time windows ("segments") at once,
// each with its own candidate grid and observer set. The engine sorts
// and canonicalises the event buffer exactly once, slices it per
// segment by binary search (zero-copy sub-slices of the shared buffer),
// and pipelines every (segment, ∆) period through the one bounded
// in-flight scheduler and worker pool; finalize routes each period's
// products to the owning segment's observers. This is what lets
// core.RunScopes run every scope of a round — a plan's global scope
// and windows, or the adaptive analysis's global and per-segment
// searches — in a single engine pass instead of one
// core.SaturationScale pass per scope.
//
// Coinciding work is deduplicated at two levels. Segments whose event
// windows coincide share one raw-stream trip enumeration (one stream
// CSR, one blocked sweep, every consumer fed from it), and (window, ∆)
// period jobs that coincide across segments — e.g. a homogeneous
// stream's single activity segment versus the global scope — build one
// CSR and run one backward sweep whose products fan out to every
// requesting segment. RunStats.Dedups and RunStats.StreamBuilds
// instrument both.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/linkstream"
	"repro/internal/temporal"
)

// SegmentObserver scopes a set of observers to one time window of the
// stream with its own candidate grid — the unit of windowed observer
// registration. Registered with RunWindowed, its observers see exactly
// the analysis they would see from Run on the window's sub-stream: the
// StreamView handed to Begin holds the window's slice of the shared
// sorted canonical event buffer (T0/T1 are the slice's first and last
// event times, so window partitions anchor at the segment's own first
// event), and every ObservePeriod receives products computed from that
// slice alone. Periods are routed to the owning segment by period
// interval: a (segment, ∆) period's products reach only the segments
// that requested it.
type SegmentObserver struct {
	// Start, End bound the segment's events to the raw-time window
	// [Start, End). Start >= End — e.g. the zero value — selects the
	// whole stream.
	Start, End int64
	// Grid is the segment's candidate aggregation periods.
	Grid []int64
	// Observers receive the segment's stream view and period products.
	Observers []Observer
}

// windowed reports whether the segment restricts the stream at all.
func (seg SegmentObserver) windowed() bool { return seg.Start < seg.End }

// StreamSource abstracts where an engine pass's event buffer comes
// from: an in-memory *linkstream.Stream (sorted and canonicalised on
// demand) or a pre-sorted columnar view (*linkstream.Columnar) whose
// EngineEvents materialises only the requested time span — windowed
// passes over a mapped file touch only their span's pages — and skips
// the engine's sort pass entirely (RunStats.SortSkips instruments
// this).
type StreamSource interface {
	NumNodes() int
	NumEvents() int
	// EngineEvents returns the events of [start, end) (start >= end
	// selects everything) in the engine's order — sorted by (T, U, V)
	// and, when canonical, with every pair oriented U < V. preSorted
	// reports that no sort work was performed because the source's
	// storage order already is the engine's order.
	EngineEvents(start, end int64, canonical bool) (events []linkstream.Event, preSorted bool, err error)
}

// streamGroup collects the scopes whose event windows coincide: they
// share one raw-stream trip enumeration.
type streamGroup struct {
	lo, hi int
	scopes []*scope
}

// RunWindowed executes one engine pass serving every registered
// segment: the stream is sorted and canonicalised once, each distinct
// (window, ∆) CSR arena is built and swept exactly once — segments
// requesting the same window and period share the one build, see
// RunStats.Dedups — and at most Options.MaxInFlight periods are resident at
// any moment across all segments. Each segment's observers receive
// exactly what a Run over the segment's sub-stream would hand them (bit
// for bit — the engine-products brute-force tests pin this), so fusing
// N windowed sweeps into one pass never changes any result, only the
// number of passes over the stream. The first error aborts the run.
//
// Cancellation: an already-cancelled ctx returns ctx.Err() immediately,
// before the stream is sorted or canonicalised. A ctx cancelled
// mid-run aborts the pipeline at the next scheduling point — admitted
// periods drain, every pooled buffer (trip lanes, occupancy chunks) is
// recycled, the worker pool and the cancellation watcher exit before
// RunWindowed returns (no goroutine outlives the call), and the first
// error returned is ctx.Err(). Periods whose observers already ran
// keep their results; no partially scored period is ever delivered.
func RunWindowed(ctx context.Context, s *linkstream.Stream, opt Options, segments ...SegmentObserver) error {
	return RunSource(ctx, s, opt, segments...)
}

// RunSource is RunWindowed over any StreamSource. With an in-memory
// stream it is exactly RunWindowed; with a sorted columnar view the
// engine's sort/canonicalise pass is skipped (counted by
// RunStats.SortSkips) and only the hull of the
// registered segments' windows is ever materialised — the rest of the
// file is never read.
func RunSource(ctx context.Context, src StreamSource, opt Options, segments ...SegmentObserver) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if src.NumEvents() == 0 {
		return ErrNoEvents
	}
	if len(segments) == 0 {
		return errors.New("sweep: no segments registered")
	}
	for _, seg := range segments {
		if len(seg.Grid) == 0 {
			return errors.New("sweep: empty candidate grid")
		}
		for _, delta := range seg.Grid {
			if delta <= 0 {
				return fmt.Errorf("sweep: non-positive aggregation period %d", delta)
			}
		}
		if len(seg.Observers) == 0 {
			return errors.New("sweep: no observers registered")
		}
		for _, o := range seg.Observers {
			n := o.Needs()
			if n.StreamTripRuns {
				if _, ok := o.(TripRunObserver); !ok {
					return fmt.Errorf("sweep: observer %T declares Needs.StreamTripRuns but does not implement TripRunObserver", o)
				}
			}
			if n.TripShards {
				if _, ok := o.(ShardedTripObserver); !ok {
					return fmt.Errorf("sweep: observer %T declares Needs.TripShards but does not implement ShardedTripObserver", o)
				}
			}
		}
	}
	if !temporal.ValidLaneWidth(opt.LaneWidth) {
		return fmt.Errorf("sweep: unsupported lane width %d (want 0, 4 or 8)", opt.LaneWidth)
	}

	// Materialise only the hull of the registered windows: for a mapped
	// columnar source, events outside [min Start, max End) are never
	// read. Any whole-stream segment widens the hull to everything.
	var hullStart, hullEnd int64
	whole := false
	for i, seg := range segments {
		if !seg.windowed() {
			whole = true
			break
		}
		if i == 0 || seg.Start < hullStart {
			hullStart = seg.Start
		}
		if i == 0 || seg.End > hullEnd {
			hullEnd = seg.End
		}
	}
	if whole {
		hullStart, hullEnd = 0, 0
	}
	events, preSorted, err := src.EngineEvents(hullStart, hullEnd, !opt.Directed)
	if err != nil {
		return err
	}
	n := src.NumNodes()

	e := &engine{ctx: ctx, opt: opt, n: n, width: temporal.ResolveLaneWidth(opt.LaneWidth)}
	if opt.Stats != nil {
		// Flush this run's counters into the caller's accumulator on
		// every exit path, cancelled and failed runs included — a
		// cancelled pass still reports the work it did.
		defer func() {
			st := opt.Stats
			st.Passes++
			if preSorted {
				st.SortSkips++
			}
			st.Builds += e.runBuilds.Load()
			st.Dedups += e.dedups
			st.StreamBuilds += e.streamBuilds
			st.Periods += e.periodsDone.Load()
			if m := e.runMaxAlive.Load(); m > st.MaxResident {
				st.MaxResident = m
			}
			st.ArenaHanded += e.runArenaHanded.Load()
			st.ArenaReused += e.runArenaReused.Load()
			st.ArenaRecycled += e.runArenaRecycled.Load()
		}()
	}

	scopes := make([]*scope, 0, len(segments))
	groups := make([]*streamGroup, 0, 1)
	groupAt := make(map[[2]int]*streamGroup)
	for _, seg := range segments {
		lo, hi := 0, len(events)
		if seg.windowed() {
			lo = sort.Search(len(events), func(i int) bool { return events[i].T >= seg.Start })
			hi = sort.Search(len(events), func(i int) bool { return events[i].T >= seg.End })
		}
		sub := events[lo:hi]
		if len(sub) == 0 {
			return fmt.Errorf("sweep: segment [%d, %d) has no events", seg.Start, seg.End)
		}
		var needs Needs
		for _, o := range seg.Observers {
			needs = needs.union(o.Needs())
		}
		sc := &scope{
			seg:   seg,
			needs: needs,
			lo:    lo,
			hi:    hi,
			v: &StreamView{
				N:        n,
				Directed: opt.Directed,
				T0:       sub[0].T,
				T1:       sub[len(sub)-1].T,
				Grid:     seg.Grid,
				Events:   sub,
			},
			histMode: opt.HistogramBins > 0 && needs.Occupancies,
		}
		scopes = append(scopes, sc)
		if needs.StreamTripRuns {
			g := groupAt[[2]int{lo, hi}]
			if g == nil {
				g = &streamGroup{lo: lo, hi: hi}
				groupAt[[2]int{lo, hi}] = g
				groups = append(groups, g)
			}
			g.scopes = append(g.scopes, sc)
		}
	}
	e.scopes = scopes
	for _, sc := range scopes {
		e.periodsTotal += len(sc.v.Grid)
	}
	e.emitStage(StagePlanned, 0)

	for _, sc := range scopes {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, o := range sc.seg.Observers {
			if err := o.Begin(sc.v); err != nil {
				return err
			}
		}
	}

	// Raw-stream trip runs (Needs.StreamTripRuns) are delivered after
	// Begin and before any period: one enumeration per distinct window,
	// shared by every consumer of the group, as per-destination runs in
	// strictly increasing destination order, recycled as soon as every
	// consumer has seen them — at most MaxInFlight destination blocks of
	// trips are ever resident.
	var scratch temporal.CSRScratch
	for _, g := range groups {
		if err := ctx.Err(); err != nil {
			return err
		}
		var consumers []TripRunObserver
		for _, sc := range g.scopes {
			for _, o := range sc.seg.Observers {
				if o.Needs().StreamTripRuns {
					consumers = append(consumers, o.(TripRunObserver))
				}
			}
		}
		deliver := func(dest int32, run []temporal.Trip) error {
			for _, c := range consumers {
				if err := c.ObserveTripRun(dest, run); err != nil {
					return err
				}
			}
			return nil
		}
		c := e.buildCSRArena(events[g.lo:g.hi], 0, 1, &scratch)
		e.streamBuilds++
		err := streamTripRuns(ctx, c, n, opt, deliver)
		e.recycleCSR(c)
		if err != nil {
			return err
		}
		e.emitStage(StageStreamTrips, 0)
		for _, c := range consumers {
			if err := c.FinishTripRuns(); err != nil {
				return err
			}
		}
	}

	// Deduplicate coinciding (window, ∆) jobs: scopes sharing the same
	// event window and candidate period become targets of one job whose
	// needs are the union of theirs. Scopes without per-period needs are
	// observed inline by produce and never enter the pipeline.
	specs := make([]*jobSpec, 0)
	specAt := make(map[specKey]*jobSpec)
	for _, sc := range scopes {
		if !sc.needs.perPeriod() {
			continue
		}
		for i, delta := range sc.v.Grid {
			k := specKey{lo: sc.lo, hi: sc.hi, delta: delta}
			sp := specAt[k]
			if sp == nil {
				sp = &jobSpec{delta: delta}
				specAt[k] = sp
				specs = append(specs, sp)
			} else {
				e.dedups++
			}
			sp.targets = append(sp.targets, jobTarget{sc: sc, idx: i})
			sp.needs = sp.needs.union(sc.needs)
		}
	}
	for _, sp := range specs {
		sp.histMode = opt.HistogramBins > 0 && sp.needs.Occupancies
	}

	if len(specs) == 0 {
		// Stream-level observers only: no CSR, no sweep, no workers.
		for _, sc := range scopes {
			for i, delta := range sc.v.Grid {
				if err := ctx.Err(); err != nil {
					return err
				}
				p := &Period{Index: i, Delta: delta, T0: sc.v.T0, NumWindows: (sc.v.T1-sc.v.T0)/delta + 1}
				for _, o := range sc.seg.Observers {
					if err := o.ObservePeriod(p); err != nil {
						return err
					}
				}
				e.emitPeriods(1, delta)
			}
		}
		return nil
	}

	e.specs = specs
	e.workers = opt.Workers
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.blocks = temporal.DestBlocksFor(e.n, e.width)
	maxInFlight := opt.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	e.sem = make(chan struct{}, maxInFlight)
	e.tasks = make(chan task, 2*e.workers)
	return e.run()
}
