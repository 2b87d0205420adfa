package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/datasets"
	"repro/internal/linkstream"
	"repro/internal/serve"
)

// serve-mixed sizing. Every run submits the whole of a fixed seeded
// sequence, sized to take about the measured seconds on a two-core
// machine, after computing the reference of every distinct spec in
// it. The result cache holds every distinct spec of the run, so a
// repeat is a hit unless it coalesces onto a run in flight: with the
// default 128 entries, evictions made the engine work of a run depend
// on completion order, and jobs_per_s moved by a third between runs
// on a two-core VM.
const (
	serveDays       = 30  // facebook shape: the stand-in's 30 days, ~3000 events
	serveSubmitsPer = 110 // submits in the sequence per measured second
	serveClients    = 2   // closed-loop clients, one connection each
	// Specs whose references set-up computes: enough engine work that
	// setup_s is not a few milliseconds of scheduling noise.
	serveSetupRefs = 32
)

// server is an in-process tsserve on a loopback listener.
type server struct {
	url   string
	queue *serve.Queue
	srv   *http.Server
	done  chan struct{}
}

// startServer starts a queue with one engine worker per run, room for
// cacheEntries results (0: the default) and its HTTP handler, which
// records a span named span on t for every traced request.
func startServer(root string, cacheEntries int, t *tracer, span string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	q := serve.NewQueue(serve.QueueConfig{StreamRoot: root, DefaultWorkers: 1, CacheEntries: cacheEntries})
	h := tracedHandler(serve.NewServer(q), t, span)
	s := &server{url: "http://" + ln.Addr().String(), queue: q, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop shuts the HTTP server down, waits for it, then closes the queue.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
	s.queue.Close()
}

// newClient returns an HTTP client holding at most n connections per
// server.
func newClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

// post sends body and returns the response body, failing on any
// non-2xx status.
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.Header, nil
}

// serveSpec is one distinct spec of the pool with its reference.
type serveSpec struct {
	body  []byte // encoded submit (stream paths relative to the root)
	want  []byte // reference report
	stats repro.EngineStats
	local time.Duration // local run + encode time of the reference
}

// servePool draws n distinct small specs: column refs on the facebook
// file and inline slices of it, over a mix of metrics, grid sizes,
// refinement and windows. The mix cycles through fixed proportions so
// every run reaches the same blend of work; the seed places slices and
// windows, and MinDelta makes every spec distinct.
func servePool(rng *rand.Rand, s *linkstream.Stream, n int) []*repro.PlanSpec {
	metricSets := [][]string{
		{"occupancy"}, {"occupancy", "classic"}, {"occupancy", "loss"},
		{"occupancy", "degree", "components"}, {"occupancy", "distance"},
	}
	t0, t1, _ := s.Span()
	out := make([]*repro.PlanSpec, n)
	for i := range out {
		spec := &repro.PlanSpec{
			Metrics:    metricSets[i%len(metricSets)],
			GridPoints: 4 + i%7,
			Refine:     i % 3,
			MinDelta:   int64(30 + 30*i + rng.Intn(30)),
		}
		lo, hi := t0, t1
		if i%5 < 2 {
			// Inline: a two-day slice, a few hundred events.
			lo = t0 + rng.Int63n(t1-t0-2*linkstream.Day)
			hi = lo + 2*linkstream.Day
			spec.Inline = repro.InlineEventsOf(s.SliceTime(lo, hi))
		} else {
			spec.Stream = &repro.StreamRef{Path: "facebook.lsc"}
		}
		if i%4 == 0 {
			q := (hi - lo) / 4
			spec.Windows = []repro.Window{{Start: lo + q, End: hi - q}}
		}
		out[i] = spec
	}
	return out
}

// serveSequence is the submit order: every fourth submit is a new
// spec and the three between repeat specs drawn uniformly from those
// already submitted. Fixing where the new specs fall keeps the engine
// work of a run, and how the two clients' cold jobs overlap, the same
// from seed to seed.
func serveSequence(rng *rand.Rand, length int) (seq []int, distinct int) {
	for k := 0; k < length; k++ {
		if k%4 == 0 {
			seq = append(seq, distinct)
			distinct++
		} else {
			seq = append(seq, rng.Intn(distinct))
		}
	}
	return seq, distinct
}

// reference runs a spec locally with the given engine workers (0: the
// engine default), its stream refs resolved under root, and returns
// the encoded report, its statistics and the run + encode time.
func reference(ctx context.Context, spec *repro.PlanSpec, root string, workers int) ([]byte, repro.EngineStats, time.Duration, error) {
	local := *spec
	local.Workers = workers
	if spec.Stream != nil {
		ref := *spec.Stream
		ref.Path = filepath.Join(root, ref.Path)
		local.Stream = &ref
	}
	start := time.Now()
	plan, err := local.NewPlan()
	b, stats, err := planJob(ctx, plan, err)
	return b, stats, time.Since(start), err
}

// references computes the references of specs on two goroutines, one
// engine worker each, and returns them in spec order.
func references(ctx context.Context, specs []*repro.PlanSpec, root string) ([]*serveSpec, error) {
	pool := make([]*serveSpec, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				sp := specs[i]
				want, stats, el, err := reference(ctx, sp, root, 1)
				body, berr := serve.EncodePlan(sp)
				pool[i] = &serveSpec{body: body, want: want, stats: stats, local: el}
				errs[i] = errors.Join(err, berr)
			}
		}()
	}
	wg.Wait()
	return pool, errors.Join(errs...)
}

// submitClass classifies a finished submit by its job status.
type submitClass int

const (
	cold submitClass = iota
	hit
	coalesced
)

// serveMixed is an in-process tsserve under two closed-loop clients
// replaying a seeded mix of new and repeated specs, from an empty
// cache.
func serveMixed(ctx context.Context, e *env) (*outcome, error) {
	out := &outcome{}
	tr := newTracer()
	var seq []int
	var specs []*repro.PlanSpec
	var pool []*serveSpec
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	// Set-up computes the references of the first serveSetupRefs specs;
	// the others are computed after it, outside setup_s, whose median of
	// three set-ups would otherwise cost three times as much.
	err := setUp(out, func() error {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		rng := rand.New(rand.NewSource(e.seed))
		s, err := standIn(datasets.Facebook(), serveDays, e.seed)
		if err != nil {
			return err
		}
		size, err := writeColumnar(s, filepath.Join(e.dir, "facebook.lsc"))
		if err != nil {
			return err
		}
		var distinct int
		seq, distinct = serveSequence(rng, serveSubmitsPer*int(e.seconds/time.Second))
		out.inputs = streamInputs(s, size)
		out.inputs["distinct_specs"] = distinct
		out.inputs["sequence"] = len(seq)
		// One spec more than the sequence uses: the traced run's cold job.
		specs = servePool(rng, s, distinct+1)
		if pool, err = references(ctx, specs[:min(serveSetupRefs, len(specs))], e.dir); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		srv, err = startServer(e.dir, len(specs), tr, "serve.handler")
		return err
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rest, err := references(ctx, specs[len(pool):], e.dir)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	pool = append(pool, rest...)
	refTime := time.Since(start)
	client := newClient(serveClients)
	defer client.CloseIdleConnections()

	var mu sync.Mutex
	rtts := map[submitClass][]time.Duration{}
	var overhead []time.Duration
	submit := func(i int) {
		sp := pool[i]
		t := time.Now()
		got, hdr, err := post(ctx, client, srv.url+"/v1/jobs?wait=1", sp.body)
		el := time.Since(t)
		class, cerr := classify(ctx, client, srv.url, hdr)
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		switch {
		case err != nil:
			out.fail("submit %d: %v", i, err)
		case cerr != nil:
			out.fail("submit %d: status: %v", i, cerr)
		case !bytes.Equal(got, sp.want):
			out.fail("submit %d: report differs from the local run", i)
		default:
			out.done++
			rtts[class] = append(rtts[class], el)
			if class == cold {
				out.jobTimes = append(out.jobTimes, el)
				overhead = append(overhead, el-sp.local)
			}
		}
	}
	out.mem = measureMem(func() {
		begin := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					k := int(next.Add(1) - 1)
					if k >= len(seq) {
						return
					}
					submit(seq[k])
				}
			}()
		}
		wg.Wait()
		out.wall = time.Since(begin)
	})
	if !e.trace {
		return out, nil
	}

	qs, qg := srv.queue.Stats(), srv.queue.Gauges()
	m := map[string]float64{
		"serve.submitted": float64(qs.Submitted), "serve.cache_hits": float64(qs.CacheHits),
		"serve.coalesced": float64(qs.Coalesced), "serve.run_count": float64(qs.RunCount),
		"serve.rejected": float64(qs.Rejected), "serve.cached_results": float64(qg.CachedResults),
	}
	if qs.Submitted > 0 {
		m["serve.hit_ratio"] = float64(qs.CacheHits) / float64(qs.Submitted)
	}
	m["serve.cold_rtt_ms"], m["serve.cold_rtt_p90_ms"], m["serve.cold_samples"] = latency(rtts[cold])
	m["serve.hit_rtt_ms"], m["serve.hit_rtt_p90_ms"], m["serve.hit_samples"] = latency(rtts[hit])
	m["serve.overhead_ms"] = float64(percentile(overhead, 50)) / 1e6
	m["bench.reference_s"] = refTime.Seconds()

	// Traced job: a cold submit of the spare spec through a traced
	// client, then the same spec through the local replica, which runs
	// it with the queue's one engine worker. The replica is the job
	// whose tracing overhead is measured, against an untraced local run
	// of the same spec timed just before it, alone, as the replica runs.
	sp := pool[len(pool)-1]
	r := &replica{t: tr, job: "job-1"}
	tt := &tracedTransport{inner: client.Transport, t: tr, name: "serve.rtt", job: r.job}
	traced := &http.Client{Transport: tt}
	var got []byte
	out.attempted++
	err = tr.do("submit", r.job, 0, func(root int64) error {
		tt.parent = root
		var err error
		got, _, err = post(ctx, traced, srv.url+"/v1/jobs?wait=1", sp.body)
		return err
	})
	switch {
	case err != nil:
		out.fail("traced submit: %v", err)
	case !bytes.Equal(got, sp.want):
		out.fail("traced submit: report differs from the local run")
	}
	begin := time.Now()
	spec, err := serve.DecodePlan(sp.body)
	var again []byte
	if err == nil {
		again, _, _, err = reference(ctx, spec, e.dir, 1)
	}
	untraced := time.Since(begin)
	out.attempted++
	switch {
	case err != nil:
		out.fail("untraced local job: %v", err)
	case !bytes.Equal(again, sp.want):
		out.fail("untraced local job: report differs from the reference")
	}
	var src engineSource
	var col *linkstream.Columnar
	defer func() {
		if col != nil {
			col.Close()
		}
	}()
	var stats repro.EngineStats
	var rep []byte
	err = tr.do("job", r.job, 0, func(root int64) error {
		var spec *repro.PlanSpec
		err := tr.do("serve.decode", r.job, root, func(int64) error {
			var err error
			spec, err = serve.DecodePlan(sp.body)
			return err
		})
		if err != nil {
			return err
		}
		spec.Workers = 1
		if spec.Stream != nil {
			err = tr.do("linkstream.open", r.job, root, func(int64) error {
				var err error
				if col, err = linkstream.OpenMapped(filepath.Join(e.dir, spec.Stream.Path)); err == nil {
					src = col
				}
				return err
			})
		} else {
			err = tr.do("linkstream.parse", r.job, root, func(int64) error {
				st, err := spec.InlineStream()
				src = st
				return err
			})
		}
		if err != nil {
			return err
		}
		rep, stats, err = r.run(ctx, spec, src, root)
		return err
	})
	out.attempted++
	switch {
	case err != nil:
		out.fail("traced local job: %v", err)
		return out, nil
	case !bytes.Equal(rep, sp.want):
		out.fail("traced local job: report differs from the untraced one")
	case !sameWork(stats, sp.stats):
		out.fail("traced local job: engine stats %+v differ from the untraced %+v", stats, sp.stats)
	}
	pc, err := r.probe(src)
	if err != nil {
		out.fail("temporal probe: %v", err)
	}
	layer := layerMetrics(r, out, stats, len(rep), src.NumEvents(), pc)
	layer["trace.overhead_s"] = layer["trace.job_s"] - untraced.Seconds()
	self := selfTimes(tr.snapshot())
	layer["serve.decode_ms"] = float64(self["serve.decode"]) / 1e6
	layer["serve.handler_ms"] = float64(self["serve.handler"]) / 1e6
	for k, v := range m {
		layer[k] = v
	}
	out.layer = layer
	if err := tr.writeFile(tracePath(e)); err != nil {
		out.fail("writing spans: %v", err)
	}
	return out, nil
}

// latency is the median and 90th percentile in milliseconds, with the
// sample count.
func latency(xs []time.Duration) (p50, p90, n float64) {
	return float64(percentile(xs, 50)) / 1e6, float64(percentile(xs, 90)) / 1e6, float64(len(xs))
}

// classify looks a finished submit up by its X-Job-ID.
func classify(ctx context.Context, c *http.Client, url string, hdr http.Header) (submitClass, error) {
	if hdr == nil {
		return cold, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+hdr.Get("X-Job-ID"), nil)
	if err != nil {
		return cold, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return cold, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return cold, err
	}
	switch {
	case st.CacheHit:
		return hit, nil
	case st.Coalesced:
		return coalesced, nil
	}
	return cold, nil
}
