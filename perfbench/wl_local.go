package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/linkstream"
	"repro/internal/serve"
	"repro/internal/temporal"
)

// Input sizes. The stand-ins keep their node counts and per-person
// activity; their spans are cut so that one job takes about half a
// second on a two-core machine and a run measures over a dozen jobs.
const (
	scaleDays    = 7  // Irvine shape: one week, ~1760 events
	validateDays = 21 // manufacturing shape: three weeks, ~7100 events
	validatePts  = 6  // fixed grid points of validate-text
)

// otherLaneWidth is the lane width the engine does not pick by
// default; reference runs use it, since lane width must not change a
// report's bytes.
func otherLaneWidth() int {
	if temporal.ResolveLaneWidth(0) == 8 {
		return 4
	}
	return 8
}

// job is one measured operation: it returns the encoded report and the
// run's engine statistics.
type job func(ctx context.Context) ([]byte, repro.EngineStats, error)

// loop runs a warm-up job, then jobs until d has elapsed, checking
// each report against want. It measures the heap over the timed jobs
// and returns the last job's statistics.
func loop(ctx context.Context, d time.Duration, out *outcome, want []byte, run job) repro.EngineStats {
	var last repro.EngineStats
	one := func() (time.Duration, bool) {
		out.attempted++
		start := time.Now()
		got, stats, err := run(ctx)
		el := time.Since(start)
		switch {
		case err != nil:
			out.fail("job: %v", err)
			return 0, false
		case !bytes.Equal(got, want):
			out.fail("job: report differs from the reference (%d vs %d bytes)", len(got), len(want))
			return 0, false
		}
		last = stats
		return el, true
	}
	one() // warm-up: discarded
	out.mem = measureMem(func() {
		start := time.Now()
		for ctx.Err() == nil && time.Since(start) < d {
			if el, ok := one(); ok {
				out.jobTimes = append(out.jobTimes, el)
				out.done++
			}
		}
		out.wall = time.Since(start)
	})
	return last
}

// planJob runs a plan, encodes its report and closes it.
func planJob(ctx context.Context, plan *repro.Plan, err error) ([]byte, repro.EngineStats, error) {
	if err != nil {
		return nil, repro.EngineStats{}, err
	}
	defer plan.Close()
	rep, err := plan.Run(ctx)
	if err != nil {
		return nil, repro.EngineStats{}, err
	}
	b, err := serve.EncodeReport(rep)
	return b, rep.EngineStats(), err
}

// scaleMapped is `tsscale -stream` with tsscale's defaults over a
// columnar file.
func scaleMapped(ctx context.Context, e *env) (*outcome, error) {
	out := &outcome{}
	path := filepath.Join(e.dir, "irvine.lsc")
	spec := &repro.PlanSpec{Stream: &repro.StreamRef{Path: path}, GridPoints: core.DefaultGridPoints, Refine: 4}
	var want []byte
	err := setUp(out, func() error {
		s, err := standIn(datasets.Irvine(), scaleDays, e.seed)
		if err != nil {
			return err
		}
		text, err := textBytes(s)
		if err != nil {
			return err
		}
		size, err := writeColumnar(s, path)
		if err != nil {
			return err
		}
		out.inputs = streamInputs(s, size)
		// Reference: the same plan over the text-parsed in-memory
		// stream, one engine worker, the other lane width.
		parsed := repro.NewStream()
		if err := parsed.ReadAny(bytes.NewReader(text)); err != nil {
			return err
		}
		opts, err := spec.Options()
		if err != nil {
			return err
		}
		plan, err := repro.NewAnalysis(parsed, append(opts, repro.WithWorkers(1), repro.WithLaneWidth(otherLaneWidth()))...)
		if want, _, err = planJob(ctx, plan, err); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	run := func(ctx context.Context) ([]byte, repro.EngineStats, error) {
		plan, err := spec.NewPlan()
		return planJob(ctx, plan, err)
	}
	stats := loop(ctx, e.seconds, out, want, run)
	if e.trace {
		tracedLocal(ctx, e, out, spec, want, stats, func(r *replica, root int64) (engineSource, func(), error) {
			var col *linkstream.Columnar
			err := r.t.do("linkstream.open", r.job, root, func(int64) error {
				var err error
				col, err = linkstream.OpenMapped(path)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			return col, func() { col.Close() }, nil
		})
	}
	return out, nil
}

// validateText is `tsscale -in` with every metric: a text stream is
// parsed, validated on a fixed grid with two half-span windows, and
// encoded.
func validateText(ctx context.Context, e *env) (*outcome, error) {
	out := &outcome{}
	path := filepath.Join(e.dir, "manufacturing.lsc")
	var text, want []byte
	var spec *repro.PlanSpec
	var opts []repro.Option
	err := setUp(out, func() error {
		s, err := standIn(datasets.Manufacturing(), validateDays, e.seed)
		if err != nil {
			return err
		}
		if text, err = textBytes(s); err != nil {
			return err
		}
		out.inputs = streamInputs(s, int64(len(text)))
		t0, t1, _ := s.Span()
		mid := t0 + (t1-t0)/2
		spec = &repro.PlanSpec{
			Metrics: []string{"occupancy", "classic", "distance", "loss", "elongation",
				"degree", "clustering", "components", "coreness", "weighted"},
			Grid:       core.LogGrid(60, t1-t0, validatePts),
			GridPoints: validatePts,
			Windows:    []repro.Window{{Start: t0, End: mid}, {Start: mid, End: t1 + 1}},
		}
		if opts, err = spec.Options(); err != nil {
			return err
		}
		// Reference: the same plan over a sorted columnar copy of the
		// parsed stream (same node numbering), memory-mapped, one
		// engine worker, the other lane width.
		parsed := repro.NewStream()
		if err := parsed.ReadAny(bytes.NewReader(text)); err != nil {
			return err
		}
		if _, err := writeColumnar(parsed, path); err != nil {
			return err
		}
		plan, err := repro.NewAnalysis(nil, append(opts, repro.WithStreamPath(path),
			repro.WithWorkers(1), repro.WithLaneWidth(otherLaneWidth()))...)
		if want, _, err = planJob(ctx, plan, err); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	run := func(ctx context.Context) ([]byte, repro.EngineStats, error) {
		st := repro.NewStream()
		if err := st.ReadAny(bytes.NewReader(text)); err != nil {
			return nil, repro.EngineStats{}, err
		}
		plan, err := repro.NewAnalysis(st, opts...)
		return planJob(ctx, plan, err)
	}
	stats := loop(ctx, e.seconds, out, want, run)
	if e.trace {
		tracedLocal(ctx, e, out, spec, want, stats, func(r *replica, root int64) (engineSource, func(), error) {
			st := repro.NewStream()
			err := r.t.do("linkstream.parse", r.job, root, func(int64) error {
				return st.ReadAny(bytes.NewReader(text))
			})
			return st, func() {}, err
		})
	}
	return out, nil
}

// streamInputs describes a generated stream for the provenance line.
func streamInputs(s *linkstream.Stream, fileBytes int64) map[string]any {
	t0, t1, _ := s.Span()
	return map[string]any{"events": s.NumEvents(), "nodes": s.NumNodes(), "span_s": t1 - t0, "file_bytes": fileBytes}
}

// tracedLocal runs one traced job — open or parse the input, then the
// replica of spec — checks that it reproduces the untraced job's report
// and engine statistics, replays its periods through the temporal
// probe, and fills the per-layer metrics.
func tracedLocal(ctx context.Context, e *env, out *outcome, spec *repro.PlanSpec, want []byte, wantStats repro.EngineStats,
	open func(r *replica, root int64) (engineSource, func(), error)) {
	r := &replica{t: newTracer(), job: "job-1"}
	var src engineSource
	var got []byte
	var stats repro.EngineStats
	release := func() {}
	defer func() { release() }()
	out.attempted++
	err := r.t.do("job", r.job, 0, func(root int64) error {
		var err error
		if src, release, err = open(r, root); err != nil {
			return err
		}
		got, stats, err = r.run(ctx, spec, src, root)
		return err
	})
	switch {
	case err != nil:
		out.fail("traced job: %v", err)
		return
	case !bytes.Equal(got, want):
		out.fail("traced job: report differs from the untraced one")
	case !sameWork(stats, wantStats):
		out.fail("traced job: engine stats %+v differ from the untraced %+v", stats, wantStats)
	}
	pc, err := r.probe(src)
	if err != nil {
		out.fail("temporal probe: %v", err)
	}
	out.layer = layerMetrics(r, out, stats, len(got), src.NumEvents(), pc)
	if err := r.t.writeFile(tracePath(e)); err != nil {
		out.fail("writing spans: %v", err)
	}
}

// layerMetrics turns a traced job's spans, its engine statistics and
// the untraced phase's heap figures into the per-layer metrics.
func layerMetrics(r *replica, out *outcome, stats repro.EngineStats, reportBytes, events int, pc probeCounts) map[string]float64 {
	spans := r.t.snapshot()
	self := selfTimes(spans)
	count := spanCounts(spans)
	ms := func(name string) float64 { return float64(self[name]) / 1e6 }
	m := map[string]float64{}
	for _, name := range []string{"temporal.relax", "temporal.build", "core.observe", "validate.observe",
		"validate.stream_trip", "metrics.observe", "classic.observe", "sweep.distance_observe",
		"linkstream.parse", "linkstream.sort", "linkstream.slice", "linkstream.open",
		"sweep.pass", "repro.plan", "repro.run", "repro.encode"} {
		m[name+"_ms"] = ms(name)
	}
	var job, rounds time.Duration
	for _, s := range spans {
		switch s.Name {
		case "job":
			job = time.Duration(s.End - s.Start)
		case "core.round":
			rounds += time.Duration(s.End - s.Start)
		}
	}
	if n := count["core.round"]; n > 0 {
		m["core.rounds"] = float64(n)
		m["core.round_ms"] = float64(rounds) / 1e6 / float64(n) // inclusive, per round
		m["core.periods_per_round"] = float64(len(r.periods)) / float64(n)
	}
	m["temporal.trips"] = float64(pc.trips)
	m["temporal.edges"] = float64(pc.edges)
	m["linkstream.events"] = float64(events)
	m["sweep.passes"] = float64(stats.Passes)
	m["sweep.sort_skips"] = float64(stats.SortSkips)
	m["sweep.periods"] = float64(stats.Periods)
	m["sweep.builds"] = float64(stats.Builds)
	m["sweep.dedups"] = float64(stats.Dedups)
	m["sweep.stream_builds"] = float64(stats.StreamBuilds)
	m["sweep.max_resident"] = float64(stats.MaxResident)
	m["sweep.arena_handed"] = float64(stats.ArenaHanded)
	if stats.ArenaHanded > 0 {
		m["sweep.arena_reuse_ratio"] = float64(stats.ArenaReused) / float64(stats.ArenaHanded)
	}
	m["repro.report_bytes"] = float64(reportBytes)
	if out.done > 0 {
		m["go.gc_cycles_per_job"] = float64(out.mem.gc) / float64(out.done)
	}
	if len(out.jobTimes) > 0 {
		m["trace.overhead_s"] = (job - percentile(out.jobTimes, 50)).Seconds()
	}
	m["bench.jobs"] = float64(len(out.jobTimes))
	m["trace.job_s"] = job.Seconds()
	m["trace.spans"] = float64(len(spans))
	return m
}

// sameWork reports whether two runs did the same engine work: every
// EngineStats counter but two that vary between identical untraced
// runs — ArenaReused, which depends on how warm the process-wide arena
// pool was when the run started, and MaxResident, a high-water mark
// that depends on how the workers were scheduled.
func sameWork(a, b repro.EngineStats) bool {
	a.ArenaReused, b.ArenaReused = 0, 0
	a.MaxResident, b.MaxResident = 0, 0
	return a == b
}
