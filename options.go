package repro

// This file defines the functional options of the plan/run lifecycle:
// repro.NewAnalysis(stream, ...Option) freezes them into an immutable
// Plan, Plan.Run(ctx) executes the plan as fused sweep-engine passes.
// Every knob of the scale search (core.Options) and of the engine
// (sweep.Options) maps onto exactly one Option here, and WithAdaptive
// adds only the adaptive segmentation policy, so any combination of
// metrics, windows and policies composes in a single request.

import (
	"fmt"
	"strings"

	"repro/internal/sweep"
)

// Metric identifies one of the built-in per-∆ curves an analysis can
// compute. All requested metrics of a plan are computed in one fused
// engine pass — each period's layer arena is built and swept once, no
// matter how many metrics consume it.
type Metric uint8

const (
	// MetricOccupancy is the paper's occupancy method: per-∆ occupancy
	// distributions scored by the plan's selectors. It is the only
	// metric that determines a saturation scale (Report.Scale) and the
	// only one the refinement bisection re-sweeps.
	MetricOccupancy Metric = iota
	// MetricClassic is the Figure 2 classical graph-series properties
	// (density, degree, connectedness).
	MetricClassic
	// MetricDistance is the Figure 2 mean temporal distance curves.
	MetricDistance
	// MetricTransitionLoss is the Section 8 proportion of shortest
	// transitions lost per period.
	MetricTransitionLoss
	// MetricElongation is the Section 8 mean trip elongation factor per
	// period.
	MetricElongation
	// MetricDegree is the snapshot degree-distribution curve: per-∆
	// mean degree, max degree and degree entropy, averaged over the
	// windows (see docs/METRICS.md).
	MetricDegree
	// MetricClustering is the snapshot clustering curve: per-∆
	// transitivity (global clustering) and mean local clustering
	// coefficient of the underlying undirected simple graph.
	MetricClustering
	// MetricComponents is the snapshot connected-component curve: per-∆
	// mean component count (among non-isolated nodes) and mean
	// giant-component fraction.
	MetricComponents
	// MetricCoreness is the snapshot k-core curve: per-∆ mean degeneracy
	// (max coreness) and mean coreness over all nodes.
	MetricCoreness
	// MetricWeighted is the weighted-aggregation curve
	// (GraphTempo/pyTempNet AggregateNet semantics — edge weight =
	// contact count per window): per-∆ mean and max edge weight,
	// normalised weight entropy, and the total contact count.
	MetricWeighted

	numMetrics
)

var metricNames = [numMetrics]string{
	"occupancy", "classic", "distance", "loss", "elongation",
	"degree", "clustering", "components", "coreness", "weighted",
}

// String returns the metric's canonical name, the one ParseMetrics
// accepts.
func (m Metric) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return fmt.Sprintf("Metric(%d)", uint8(m))
}

// ParseMetrics parses a comma-separated metric list — e.g.
// "occupancy,loss,elongation" — into the Metric values WithMetrics
// accepts. Empty names are skipped; unknown names error.
func ParseMetrics(spec string) ([]Metric, error) {
	var out []Metric
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for m, canonical := range metricNames {
			if name == canonical {
				out = append(out, Metric(m))
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("repro: unknown metric %q (have %s)",
				name, strings.Join(metricNames[:], ", "))
		}
	}
	return out, nil
}

// Window scopes part of an analysis to one time window of the stream:
// the plan's metrics are computed over the window's events alone, with
// results reported per window (Report.Window). Windows ride the same
// fused engine pass as the global analysis — coinciding (window, ∆)
// aggregations are built once and shared.
type Window struct {
	// Start, End bound the window's events to [Start, End) in raw
	// stream time.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Grid is the window's candidate aggregation periods; empty derives
	// a logarithmic grid from the window's own resolution and span,
	// like the adaptive per-segment analysis does.
	Grid []int64 `json:"grid,omitempty"`
}

// planConfig is the frozen state of a Plan. Options mutate it during
// NewAnalysis; afterwards it never changes.
type planConfig struct {
	directed      bool
	workers       int
	maxInFlight   int
	histogramBins int
	selectors     []Selector
	grid          []int64
	gridSet       bool
	gridPoints    int
	minDelta      int64
	refine        int
	laneWidth     int
	speculate     bool
	metrics       [numMetrics]bool
	metricsSet    bool
	noGlobal      bool
	windows       []Window
	segments      []SegmentObserver
	observers     []SweepObserver
	adaptive      *AdaptiveConfig
	progress      func(ProgressEvent)
	streamPath    string
	elongSpill    int64
}

func (c *planConfig) metricOn(m Metric) bool { return c.metrics[m] }

func (c *planConfig) anyMetric() bool {
	for _, on := range c.metrics {
		if on {
			return true
		}
	}
	return false
}

// Option configures an analysis plan; see NewAnalysis.
type Option func(*planConfig) error

// WithDirected preserves link orientation in snapshots and temporal
// paths (default: undirected, as the paper analyses its datasets).
func WithDirected(directed bool) Option {
	return func(c *planConfig) error {
		c.directed = directed
		return nil
	}
}

// WithWorkers bounds the engine parallelism; <= 0 (the default) uses
// all CPUs.
func WithWorkers(n int) Option {
	return func(c *planConfig) error {
		c.workers = n
		return nil
	}
}

// WithMaxInFlight bounds how many aggregation periods the engine keeps
// resident at once (layer arena plus product sinks) across everything
// the plan computes; <= 0 (the default) selects the engine default.
// Peak sweep memory is O(MaxInFlight × period footprint), not O(grid).
func WithMaxInFlight(n int) Option {
	return func(c *planConfig) error {
		c.maxInFlight = n
		return nil
	}
}

// WithHistogramBins scores occupancy distributions through fixed-bin
// streaming histograms instead of exact value multisets. Only the M-K
// proximity selector supports this backend; it is intended for very
// large trip populations.
func WithHistogramBins(bins int) Option {
	return func(c *planConfig) error {
		c.histogramBins = bins
		return nil
	}
}

// WithSelectors sets the uniformity measures scoring each candidate
// period of the occupancy metric; the first selector decides the
// saturation scale. Default: M-K proximity only, the paper's choice.
func WithSelectors(sels ...Selector) Option {
	return func(c *planConfig) error {
		c.selectors = append([]Selector(nil), sels...)
		return nil
	}
}

// WithGrid sets the candidate aggregation periods explicitly. Without
// it the plan derives a logarithmic grid from the stream's resolution
// and span (see WithGridPoints and WithMinDelta).
func WithGrid(grid ...int64) Option {
	return func(c *planConfig) error {
		for _, delta := range grid {
			if delta <= 0 {
				return fmt.Errorf("repro: non-positive aggregation period %d", delta)
			}
		}
		c.grid = append([]int64(nil), grid...)
		c.gridSet = true
		return nil
	}
}

// WithGridPoints sets the resolution of derived candidate grids (the
// default logarithmic grid, window grids, adaptive segment grids);
// <= 0 selects the entry point's default.
func WithGridPoints(points int) Option {
	return func(c *planConfig) error {
		c.gridPoints = points
		return nil
	}
}

// WithMinDelta sets the smallest candidate period of derived grids;
// <= 0 (the default) uses the stream's timestamp resolution.
func WithMinDelta(lo int64) Option {
	return func(c *planConfig) error {
		c.minDelta = lo
		return nil
	}
}

// WithRefine adds extra grid points between the neighbours of the best
// period found by the occupancy sweep and re-sweeps once, sharpening
// the saturation scale beyond grid resolution. Each refinement round
// is one more engine pass; every distinct ∆ is swept at most once.
func WithRefine(extra int) Option {
	return func(c *planConfig) error {
		c.refine = extra
		return nil
	}
}

// WithLaneWidth pins the engine's destination-lane width: how many
// destinations each blocked temporal-path sweep relaxes per edge pass.
// 0 (the default) picks the architecture default (8 on 64-bit
// amd64/arm64, 4 elsewhere); 4 and 8 force that width. Every width
// produces bit-identical results — the knob trades per-edge
// amortisation against per-lane state footprint, nothing else.
func WithLaneWidth(width int) Option {
	return func(c *planConfig) error {
		if !sweep.ValidLaneWidth(width) {
			return fmt.Errorf("repro: unsupported lane width %d (want 0, 4 or 8)", width)
		}
		c.laneWidth = width
		return nil
	}
}

// WithSpeculate switches the occupancy refinement to speculative
// bracket bisection: each refinement round stages both candidate
// half-midpoints of the bracket around the running maximum in a single
// engine pass, instead of sweeping one midpoint and waiting for its
// score before staging the next. WithRefine then bounds bisection
// rounds rather than extra grid points. The ∆ sequence swept — and
// therefore the reported scale and curve — is identical to serial
// bisection's; only the pass batching differs.
func WithSpeculate(speculate bool) Option {
	return func(c *planConfig) error {
		c.speculate = speculate
		return nil
	}
}

// WithMetrics selects the built-in curves the analysis computes, for
// the global scope and every window. The default is MetricOccupancy
// alone; WithMetrics with no arguments selects no built-in metric at
// all (useful for plans that only run custom observers or segments).
func WithMetrics(metrics ...Metric) Option {
	return func(c *planConfig) error {
		c.metrics = [numMetrics]bool{}
		c.metricsSet = true
		for _, m := range metrics {
			if int(m) >= int(numMetrics) {
				return fmt.Errorf("repro: unknown metric %v", m)
			}
			c.metrics[m] = true
		}
		return nil
	}
}

// WithWindows adds time windows the plan analyses alongside the whole
// stream, each with the plan's metric set and its own candidate grid.
// Windows are incompatible with WithAdaptive (whose segmentation picks
// its own windows).
func WithWindows(windows ...Window) Option {
	return func(c *planConfig) error {
		for _, w := range windows {
			if w.Start >= w.End {
				return fmt.Errorf("repro: window [%d, %d) is empty", w.Start, w.End)
			}
			for _, delta := range w.Grid {
				if delta <= 0 {
					return fmt.Errorf("repro: non-positive aggregation period %d in window grid", delta)
				}
			}
			w.Grid = append([]int64(nil), w.Grid...)
			c.windows = append(c.windows, w)
		}
		return nil
	}
}

// WithWindowsOnly drops the global scope from the plan: only the
// WithWindows windows are analysed, each with the plan's metric set
// over its own grid. It exists for shard execution — a coordinator
// splitting a plan's (window, ∆) job space dispatches window chunks
// without paying for a redundant whole-stream pass on every worker —
// but composes like any other option. The plan must have windows, and
// custom observers (which attach to the global scope) are rejected.
func WithWindowsOnly() Option {
	return func(c *planConfig) error {
		c.noGlobal = true
		return nil
	}
}

// WithObservers attaches custom sweep observers to the plan's global
// scope: they receive the whole stream's view and every period of the
// plan's base candidate grid from the same engine pass that computes
// the built-in metrics.
func WithObservers(observers ...SweepObserver) Option {
	return func(c *planConfig) error {
		c.observers = append(c.observers, observers...)
		return nil
	}
}

// WithSegments registers raw windowed observer sets (see
// SegmentObserver) to run in the plan's engine pass, for callers that need full control over per-window grids and
// observers. Most callers want WithWindows instead.
func WithSegments(segments ...SegmentObserver) Option {
	return func(c *planConfig) error {
		c.segments = append(c.segments, segments...)
		return nil
	}
}

// WithAdaptive runs the activity-segmented analysis of the paper's
// conclusion: the stream is split into high- and low-activity segments
// and a saturation scale is determined for the whole stream and every
// sufficiently populated segment, all through fused engine passes
// (Report.Adaptive holds the outcome). Only the segmentation fields of
// cfg (Bins, MinRunBins, SeparationFactor) are read; the candidate
// grids and execution knobs — grid points, smallest period,
// orientation, workers, selectors, refinement, budgets — come from the
// plan's own options (WithGridPoints, WithMinDelta, WithDirected,
// WithWorkers, WithSelectors, WithRefine, WithMaxInFlight), exactly
// like every other metric, so option order never matters.
func WithAdaptive(cfg AdaptiveConfig) Option {
	return func(c *planConfig) error {
		frozen := AdaptiveConfig{
			Bins:             cfg.Bins,
			MinRunBins:       cfg.MinRunBins,
			SeparationFactor: cfg.SeparationFactor,
		}
		c.adaptive = &frozen
		return nil
	}
}

// WithStreamPath builds the plan over a stream file instead of an
// in-memory Stream; the stream argument of NewAnalysis must be nil.
// The format is detected from the file's magic: columnar streams
// (written by cmd/tsconvert) are memory-mapped where the platform
// supports it and handed to the engine without any parse — pre-sorted
// files skip the engine's sort pass (EngineStats.SortSkips) and
// windowed passes read only their span's pages via the file's skip
// index; binary (LSB) and text streams are parsed into memory as
// usual. Call Plan.Close when done with a plan built this way to
// release the mapping.
func WithStreamPath(path string) Option {
	return func(c *planConfig) error {
		if path == "" {
			return fmt.Errorf("repro: empty stream path")
		}
		c.streamPath = path
		return nil
	}
}

// WithElongationSpill caps the resident bytes of the elongation
// metric's delta-encoded pair-span arena; past the cap, finished span
// regions spill to an unlinked temp file that scoring re-reads
// sequentially, so MetricElongation runs on streams whose span
// population exceeds RAM. <= 0 (the default) keeps the arena in RAM.
// The curve is bit-identical for any cap.
func WithElongationSpill(bytes int64) Option {
	return func(c *planConfig) error {
		c.elongSpill = bytes
		return nil
	}
}

// WithProgress registers a progress hook: fn receives one ProgressEvent
// per engine milestone (run planned, raw-stream trips enumerated, each
// period scored), with Pass set to the bisection round for multi-pass
// plans. Calls are serialised but run on engine goroutines — fn must
// return quickly and must not call back into the plan.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(c *planConfig) error {
		c.progress = fn
		return nil
	}
}

// ProgressEvent is one engine milestone of a running plan; see
// WithProgress and the sweep-engine documentation for field semantics.
type ProgressEvent = sweep.ProgressEvent

// ProgressStage identifies what a ProgressEvent reports.
type ProgressStage = sweep.Stage

// Progress stages, re-exported from the engine.
const (
	// ProgressPlanned: a pass sorted the stream and planned its period
	// jobs; PeriodsTotal is known from here on.
	ProgressPlanned = sweep.StagePlanned
	// ProgressStreamTrips: one raw-stream trip enumeration completed.
	ProgressStreamTrips = sweep.StageStreamTrips
	// ProgressPeriod: one (segment, ∆) period was delivered to its
	// observers.
	ProgressPeriod = sweep.StagePeriod
)

// EngineStats aggregates the engine instrumentation of a plan's run:
// passes (and how many of them skipped the sort because the source was
// a pre-sorted columnar stream — SortSkips), period CSR builds,
// (window, ∆) dedup hits, raw-stream trip enumerations, periods
// delivered, and the peak number of periods simultaneously resident.
type EngineStats = sweep.RunStats
