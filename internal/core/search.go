package core

// This file implements the engine-backed search entry points of the
// occupancy method: SaturationScale's sweep-then-refine loop factored
// into a resumable state machine (ScaleSearch) whose engine passes are
// supplied by the caller. Every in-process search — SaturationScale's
// single scope, the plan's global scope and windows, or the adaptive
// analysis's global and per-segment scopes — runs through RunScopes,
// which batches the requests of each round into one fused
// sweep.RunSource pass, so every scope's grid flows through one engine
// pipeline under the shared MaxInFlight bound. Batched searches whose
// windows and candidate periods coincide (a homogeneous stream's single
// segment against the global search) are deduplicated by the engine
// itself: one (window, ∆) CSR build serves every search that requested
// it, bit-identically.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/sweep"
)

// ScaleSearch is the occupancy method as a resumable search: it
// emits sweep requests (a candidate grid plus an observer to score it
// with) and absorbs the scored points until γ is determined, letting a
// caller interleave or batch the engine passes of many searches.
//
// Protocol: call Next for the pending request; run any engine pass that
// registers the returned observer over the returned grid; call Absorb.
// Repeat until Next reports ok == false, then read Result. Each
// distinct ∆ is swept at most once across all rounds — refinement grids
// are deduplicated against every ∆ already scored.
//
// Refinement is either one extra pass over Options.Refine points
// between the neighbours of the first pass's maximum, or, with
// Options.Speculate, a bracket bisection: each of up to Options.Refine
// rounds requests both geometric half-midpoints of the bracket around
// the running maximum in one request.
type ScaleSearch struct {
	opt       Options
	sels      []dist.Selector
	seen      map[int64]bool
	points    []SweepPoint
	cur       *OccupancyObserver
	curGrid   []int64
	requested bool // a NextGrid/Next request is outstanding
	rounds    int  // refinement rounds remaining
	done      bool
}

// NewScaleSearch validates opt and stages the initial sweep request.
// Unlike SaturationScale, opt.Grid must be set explicitly — a search
// has no stream to derive a default grid from.
func NewScaleSearch(opt Options) (*ScaleSearch, error) {
	if len(opt.Grid) == 0 {
		return nil, errors.New("core: ScaleSearch needs an explicit candidate grid")
	}
	for _, delta := range opt.Grid {
		if delta <= 0 {
			return nil, fmt.Errorf("core: non-positive aggregation period %d", delta)
		}
	}
	sels := opt.selectors()
	if opt.HistogramBins > 0 {
		if err := validateHistogramSelectors(sels); err != nil {
			return nil, err
		}
	}
	sc := &ScaleSearch{opt: opt, sels: sels, seen: make(map[int64]bool, len(opt.Grid)), curGrid: opt.Grid}
	if opt.Speculate {
		sc.rounds = opt.Refine
	} else if opt.Refine > 0 {
		sc.rounds = 1
	}
	for _, d := range opt.Grid {
		sc.seen[d] = true
	}
	return sc, nil
}

// Next returns the pending sweep request: the grid to sweep and the
// observer to register for it. ok is false when the search is complete
// (or a previous request has not been absorbed yet).
func (sc *ScaleSearch) Next() (grid []int64, obs sweep.Observer, ok bool) {
	if sc.done || sc.requested || sc.curGrid == nil {
		return nil, nil, false
	}
	sc.cur = NewOccupancyObserver(sc.sels)
	sc.requested = true
	return sc.curGrid, sc.cur, true
}

// NextGrid is the observer-less half of the request protocol, for
// callers whose engine passes run elsewhere (a shard coordinator
// dispatching grids to workers): it returns the pending candidate grid
// without allocating an observer. Fold the scored points back with
// AbsorbPoints. ok is false when the search is complete or a previous
// request has not been absorbed yet.
func (sc *ScaleSearch) NextGrid() (grid []int64, ok bool) {
	if sc.done || sc.requested || sc.curGrid == nil {
		return nil, false
	}
	sc.requested = true
	return sc.curGrid, true
}

// Absorb folds the scored points of the last Next request into the
// search and stages the next refinement round when opt.Refine asks for
// one and the maximum is not yet pinned to grid resolution.
func (sc *ScaleSearch) Absorb() error {
	if sc.cur == nil {
		return errors.New("core: Absorb without a pending sweep request")
	}
	pts := sc.cur.Points()
	sc.cur = nil
	return sc.absorb(pts)
}

// AbsorbPoints folds externally scored points into the search — the
// partial-fold entry point matching NextGrid. pts must hold one scored
// point per period of the last NextGrid grid, in grid order (exactly
// what OccupancyObserver.Points returns for that grid), so a
// coordinator folding per-shard partials reproduces Absorb bit for
// bit.
func (sc *ScaleSearch) AbsorbPoints(pts []SweepPoint) error {
	if !sc.requested {
		return errors.New("core: AbsorbPoints without a pending sweep request")
	}
	if sc.cur != nil {
		return errors.New("core: AbsorbPoints on an observer-backed request; call Absorb")
	}
	if len(pts) != len(sc.curGrid) {
		return fmt.Errorf("core: AbsorbPoints: %d points for a %d-period grid", len(pts), len(sc.curGrid))
	}
	for i, p := range pts {
		if p.Delta != sc.curGrid[i] {
			return fmt.Errorf("core: AbsorbPoints: point %d scores ∆=%d, grid wants ∆=%d", i, p.Delta, sc.curGrid[i])
		}
	}
	return sc.absorb(pts)
}

// absorb is the shared fold: merge the scored points and stage the
// next refinement round or finish.
func (sc *ScaleSearch) absorb(pts []SweepPoint) error {
	sc.curGrid, sc.requested = nil, false
	if sc.points == nil {
		sc.points = pts
	} else {
		sc.points = mergePoints(sc.points, pts)
	}
	if sc.rounds > 0 {
		sc.rounds--
		sc.curGrid = sc.refineGrid()
	}
	sc.done = len(sc.curGrid) == 0
	return nil
}

// refineGrid returns the unseen candidates of the next refinement
// round around the current maximum, marking them seen: the bracket's
// two geometric half-midpoints under Speculate, otherwise opt.Refine
// log-spaced points between the maximum's neighbours. An empty result
// means the maximum is pinned to timestamp resolution.
func (sc *ScaleSearch) refineGrid() []int64 {
	if len(sc.points) < 2 {
		return nil
	}
	best := Best(sc.points, 0)
	lo := sc.points[max(0, best-1)].Delta
	b := sc.points[best].Delta
	hi := sc.points[min(len(sc.points)-1, best+1)].Delta
	var cands []int64
	if sc.opt.Speculate {
		cands = []int64{geoMid(lo, b), geoMid(b, hi)}
	} else {
		cands = LogGrid(lo, hi, sc.opt.Refine+2)
	}
	var fresh []int64
	for _, d := range cands {
		if !sc.seen[d] {
			sc.seen[d] = true
			fresh = append(fresh, d)
		}
	}
	return fresh
}

// geoMid returns the geometric midpoint of (a, b), clamped inside the
// open interval; when b <= a+1 no interior point exists and an endpoint
// (always already swept, hence seen-filtered) is returned.
func geoMid(a, b int64) int64 {
	m := int64(math.Round(math.Sqrt(float64(a) * float64(b))))
	if m <= a {
		m = a + 1
	}
	if m >= b {
		m = b - 1
	}
	if m < a {
		m = a
	}
	return m
}

// Done reports whether the search has converged.
func (sc *ScaleSearch) Done() bool { return sc.done }

// Result returns γ and the full score curve. It errors until the
// search is complete.
func (sc *ScaleSearch) Result() (Result, error) {
	if !sc.done {
		return Result{}, errors.New("core: scale search has pending sweep requests")
	}
	best := Best(sc.points, 0)
	return Result{
		Gamma:    sc.points[best].Delta,
		Score:    sc.points[best].Scores[0],
		Selector: sc.sels[0].Name(),
		Points:   sc.points,
	}, nil
}

// Scope is one analysis scope of a fused run (see RunScopes): a raw-time
// window with its candidate grid, an optional occupancy scale search
// and the co-observers that ride the scope's first engine pass.
type Scope struct {
	// Start, End bound the scope to [Start, End); Start >= End selects
	// the whole stream (see sweep.SegmentObserver).
	Start, End int64
	// Grid is the candidate grid Observers see. A scope with a Search
	// sweeps the grids the search requests instead.
	Grid []int64
	// Search, when non-nil, is driven to convergence.
	Search *ScaleSearch
	// Observers are registered on the scope's round-0 pass only.
	Observers []sweep.Observer
	// Result is the converged search's outcome; HasResult reports it
	// was filled.
	Result    Result
	HasResult bool
}

// RunScopes executes scopes as fused engine passes, one per refinement
// round: round 0 batches every scope (its search's first grid plus its
// co-observers) and the raw segments, later rounds only the searches
// still refining. A scope without a search is done after round 0. Each
// pass runs through sweep.RunSource with opt; opt.Progress, when set,
// receives every pass's events with ProgressEvent.Pass set to the
// round, and opt.Stats accumulates across passes. The first error
// aborts the run.
func RunScopes(ctx context.Context, src sweep.StreamSource, opt sweep.Options, scopes []*Scope, raw ...sweep.SegmentObserver) error {
	progress := opt.Progress
	active := scopes
	for round := 0; ; round++ {
		batch := make([]sweep.SegmentObserver, 0, len(active)+len(raw))
		var searching []*Scope
		for _, sc := range active {
			grid, observers := sc.Grid, []sweep.Observer(nil)
			if sc.Search != nil {
				g, obs, ok := sc.Search.Next()
				if !ok {
					return errors.New("core: RunScopes: scale search has no pending sweep request")
				}
				grid, observers = g, append(observers, obs)
				searching = append(searching, sc)
			}
			if round == 0 {
				observers = append(observers, sc.Observers...)
			}
			if len(observers) > 0 {
				batch = append(batch, sweep.SegmentObserver{Start: sc.Start, End: sc.End, Grid: grid, Observers: observers})
			}
		}
		if round == 0 {
			batch = append(batch, raw...)
		}
		if len(batch) == 0 {
			return nil
		}
		if progress != nil {
			pass := round
			opt.Progress = func(ev sweep.ProgressEvent) {
				ev.Pass = pass
				progress(ev)
			}
		}
		if err := sweep.RunSource(ctx, src, opt, batch...); err != nil {
			return err
		}
		active = nil
		for _, sc := range searching {
			if err := sc.Search.Absorb(); err != nil {
				return err
			}
			if !sc.Search.Done() {
				active = append(active, sc)
				continue
			}
			res, err := sc.Search.Result()
			if err != nil {
				return err
			}
			sc.Result, sc.HasResult = res, true
		}
	}
}
