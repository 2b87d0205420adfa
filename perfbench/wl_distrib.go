package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/datasets"
	"repro/internal/distrib"
	"repro/internal/linkstream"
	"repro/internal/serve"
)

// distrib-sharded sizing: every job is a distinct spec, so a run
// computes one reference per job before it measures. A run measures a
// fixed number of jobs, sized to take about the measured seconds on a
// two-core machine, so every run does the same work.
const (
	distribDays    = 120 // enron shape: four months, ~5200 events
	distribJobsPer = 4   // measured jobs per measured second
	// References set-up computes: enough engine work that setup_s is
	// not dominated by scheduling noise.
	distribSetupRefs = 4
)

// distribSharded runs distinct specs through a coordinator and two
// in-process workers on loopback.
func distribSharded(ctx context.Context, e *env) (*outcome, error) {
	out := &outcome{}
	tr := newTracer()
	// A warm-up spec, the measured ones, and a spare for the traced job.
	n := distribJobsPer*int(e.seconds/time.Second) + 2
	specs := make([]*repro.PlanSpec, n)
	wants := make([][]byte, n)
	stats := make([]repro.EngineStats, n)
	local := make([]time.Duration, n)
	var workers []*server
	stop := func() {
		for _, w := range workers {
			w.stop()
		}
		workers = nil
	}
	defer stop()
	// Reference: each spec run locally, with the engine's default
	// workers; its time is the local baseline. Set-up computes the first
	// distribSetupRefs; the others are computed after it, outside
	// setup_s, whose median of three set-ups would otherwise cost three
	// times as much.
	ref := func(i int) error {
		var err error
		wants[i], stats[i], local[i], err = reference(ctx, specs[i], e.dir, 0)
		if err != nil {
			return fmt.Errorf("reference %d: %w", i, err)
		}
		return nil
	}
	err := setUp(out, func() error {
		stop()
		rng := rand.New(rand.NewSource(e.seed))
		s, err := standIn(datasets.Enron(), distribDays, e.seed)
		if err != nil {
			return err
		}
		size, err := writeColumnar(s, filepath.Join(e.dir, "enron.lsc"))
		if err != nil {
			return err
		}
		out.inputs = streamInputs(s, size)
		for i := range specs {
			specs[i] = &repro.PlanSpec{
				Stream:     &repro.StreamRef{Path: "enron.lsc"},
				Metrics:    []string{"occupancy", "classic", "loss"},
				GridPoints: 16,
				Refine:     2,
				MinDelta:   int64(60 + 60*i + rng.Intn(60)),
			}
		}
		for i := 0; i < distribSetupRefs; i++ {
			if err := ref(i); err != nil {
				return err
			}
		}
		for i := 0; i < 2; i++ {
			w, err := startServer(e.dir, 0, tr, "distrib.worker_busy")
			if err != nil {
				return err
			}
			workers = append(workers, w)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := distribSetupRefs; i < n; i++ {
		if err := ref(i); err != nil {
			return nil, err
		}
	}
	refTime := time.Since(start)

	// One connection per worker keeps the load within two cores; the
	// heartbeat TTL outlives the run, so no worker expires mid-run.
	newCoordinator := func(client *http.Client) (*distrib.Coordinator, error) {
		c := distrib.NewCoordinator(distrib.Config{StreamRoot: e.dir, Client: client, HeartbeatTTL: time.Hour})
		for i, w := range workers {
			if err := c.Registry().Register(fmt.Sprintf("w%d", i+1), w.url); err != nil {
				return nil, err
			}
		}
		return c, nil
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	coord, err := newCoordinator(client)
	if err != nil {
		return nil, err
	}

	runJob := func(i int) (time.Duration, bool) {
		out.attempted++
		b := coord.Stats()
		t := time.Now()
		rep, err := coord.Run(ctx, specs[i])
		var got []byte
		if err == nil {
			got, err = serve.EncodeReport(rep)
		}
		el := time.Since(t)
		if err == nil {
			err = sharded(coord, b, len(workers))
		}
		switch {
		case err != nil:
			out.fail("job %d: %v", i, err)
			return 0, false
		case !bytes.Equal(got, wants[i]):
			out.fail("job %d: distributed report differs from the local run", i)
			return 0, false
		}
		return el, true
	}
	runJob(0) // warm-up: discarded
	before := coord.Stats()
	out.mem = measureMem(func() {
		begin := time.Now()
		for i := 1; i < n-1 && ctx.Err() == nil; i++ {
			if el, ok := runJob(i); ok {
				out.jobTimes = append(out.jobTimes, el)
				out.done++
			}
		}
		out.wall = time.Since(begin)
	})
	after := coord.Stats()
	if !e.trace {
		return out, nil
	}

	jobs := float64(after.Jobs - before.Jobs)
	m := map[string]float64{
		"distrib.shards_dispatched": float64(after.ShardsDispatched-before.ShardsDispatched) / jobs,
		"distrib.shard_retries":     float64(after.ShardRetries - before.ShardRetries),
		"distrib.local_shard_runs":  float64(after.LocalShardRuns - before.LocalShardRuns),
		"distrib.local_job_s":       percentile(local[1:n-1], 50).Seconds(),
		"bench.reference_s":         refTime.Seconds(),
	}
	m["distrib.overhead_ratio"] = percentile(out.jobTimes, 50).Seconds() / m["distrib.local_job_s"]

	// Traced job: the spare spec through a coordinator whose client
	// records every shard round trip, then the same spec through the
	// local replica.
	last := n - 1
	r := &replica{t: tr, job: "job-1"}
	tt := &tracedTransport{inner: client.Transport, t: tr, name: "distrib.shard_rtt", job: r.job}
	tcoord, err := newCoordinator(&http.Client{Transport: tt})
	if err != nil {
		return nil, err
	}
	var got []byte
	out.attempted++
	tb := tcoord.Stats()
	err = tr.do("job", r.job, 0, func(root int64) error {
		var rep *repro.Report
		err := tr.do("distrib.run", r.job, root, func(id int64) error {
			tt.parent = id
			var err error
			rep, err = tcoord.Run(ctx, specs[last])
			return err
		})
		if err != nil {
			return err
		}
		return tr.do("repro.encode", r.job, root, func(int64) error {
			got, err = serve.EncodeReport(rep)
			return err
		})
	})
	if err == nil {
		err = sharded(tcoord, tb, len(workers))
	}
	switch {
	case err != nil:
		out.fail("traced job: %v", err)
	case !bytes.Equal(got, wants[last]):
		out.fail("traced job: distributed report differs from the local run")
	}
	m["distrib.partial_bytes"] = float64(tt.bytes.Load())

	var col *linkstream.Columnar
	var rep []byte
	var rstats repro.EngineStats
	err = tr.do("local", r.job, 0, func(root int64) error {
		err := tr.do("linkstream.open", r.job, root, func(int64) error {
			var err error
			col, err = linkstream.OpenMapped(filepath.Join(e.dir, "enron.lsc"))
			return err
		})
		if err != nil {
			return err
		}
		rep, rstats, err = r.run(ctx, specs[last], col, root)
		return err
	})
	out.attempted++
	if err != nil {
		out.fail("traced local job: %v", err)
		return out, nil
	}
	defer col.Close()
	switch {
	case !bytes.Equal(rep, wants[last]):
		out.fail("traced local job: report differs from the untraced one")
	case !sameWork(rstats, stats[last]):
		out.fail("traced local job: engine stats %+v differ from the untraced %+v", rstats, stats[last])
	}
	pc, err := r.probe(col)
	if err != nil {
		out.fail("temporal probe: %v", err)
	}
	layer := layerMetrics(r, out, rstats, len(rep), col.NumEvents(), pc)
	self := selfTimes(tr.snapshot())
	for _, name := range []string{"distrib.shard_rtt", "distrib.worker_busy"} {
		layer[name+"_ms"] = float64(self[name]) / 1e6
	}
	layer["distrib.coord_self_ms"] = float64(self["distrib.run"]) / 1e6
	for k, v := range m {
		layer[k] = v
	}
	out.layer = layer
	if err := tr.writeFile(tracePath(e)); err != nil {
		out.fail("writing spans: %v", err)
	}
	return out, nil
}

// sharded checks that the coordinator sent the jobs it ran since
// before to its workers: at least one shard per worker and job, every
// shard answered on its first attempt, and no in-process fallback. The
// coordinator reaches the same report bytes whatever its workers do,
// so the bytes alone cannot show that the shard tier ran.
func sharded(c *distrib.Coordinator, before distrib.Stats, workers int) error {
	a := c.Stats()
	jobs, shards := a.Jobs-before.Jobs, a.ShardsDispatched-before.ShardsDispatched
	if a.LocalRuns != before.LocalRuns || a.LocalShardRuns != before.LocalShardRuns ||
		a.ShardRetries != before.ShardRetries || a.ShardTimeouts != before.ShardTimeouts ||
		a.CorruptPartials != before.CorruptPartials || a.HashRejects != before.HashRejects {
		return fmt.Errorf("shard tier fell back or retried: coordinator stats %+v, then %+v", before, a)
	}
	if shards < jobs*int64(workers) {
		return fmt.Errorf("%d shards dispatched for %d jobs on %d workers", shards, jobs, workers)
	}
	return nil
}
