package main

// Tracing for the traced run. Spans are recorded by the benchmark's
// own code around its calls into each layer — the program itself
// carries no tracing — held in memory, and written out when the run
// ends. A layer's number is its self time: its spans' durations minus
// the part of each span its child spans cover.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// span is one timed layer call. Start and End are nanoseconds since
// the tracer's origin; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open starts a span and returns its ID and start time; close records
// it. Splitting the two lets a span's children name their parent
// while it is still open.
func (t *tracer) open() (int64, int64) { return t.next.Add(1), t.now() }

func (t *tracer) close(id, parent int64, name, job string, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: start, End: end})
	t.mu.Unlock()
}

// do runs fn inside a span; fn receives the span's ID to parent its
// own children.
func (t *tracer) do(name, job string, parent int64, fn func(id int64) error) error {
	id, start := t.open()
	err := fn(id)
	t.close(id, parent, name, job, start)
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// unionLength is the total length of the union of half-open [lo, hi)
// intervals.
func unionLength(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// selfTimes sums, per span name, each span's duration minus the union
// of its children's intervals clipped to the span.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		var clipped [][2]int64
		for _, k := range kids[s.ID] {
			lo, hi := max(k[0], s.Start), min(k[1], s.End)
			if lo < hi {
				clipped = append(clipped, [2]int64{lo, hi})
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - unionLength(clipped))
	}
	return out
}

// spanCounts counts spans per name.
func spanCounts(spans []span) map[string]int {
	out := map[string]int{}
	for _, s := range spans {
		out[s.Name]++
	}
	return out
}

// tracedObserver times an engine observer's calls. It forwards Needs
// unchanged and implements the streaming-trip and sharded-trip
// interfaces by delegation; the engine only type-asserts them for
// observers whose Needs request them, so wrapping never changes the
// products the engine builds.
type tracedObserver struct {
	inner  sweep.Observer
	t      *tracer
	name   string // span name of Begin / ObservePeriod / trip blocks
	runs   string // span name of the streaming trip runs
	job    string
	parent *atomic.Int64         // the current engine pass's span
	onPer  func(p *sweep.Period) // called with every period, before it is observed
}

func (o *tracedObserver) Needs() sweep.Needs { return o.inner.Needs() }

func (o *tracedObserver) timed(name string, fn func() error) error {
	id, start := o.t.open()
	err := fn()
	o.t.close(id, o.parent.Load(), name, o.job, start)
	return err
}

func (o *tracedObserver) Begin(v *sweep.StreamView) error {
	return o.timed(o.name, func() error { return o.inner.Begin(v) })
}

func (o *tracedObserver) ObservePeriod(p *sweep.Period) error {
	if ts, ok := p.Shard.(*tracedShard); ok {
		p.Shard = ts.inner // the inner observer reads back its own shard
	}
	if o.onPer != nil {
		o.onPer(p)
	}
	return o.timed(o.name, func() error { return o.inner.ObservePeriod(p) })
}

func (o *tracedObserver) ObserveTripRun(dest int32, run []temporal.Trip) error {
	tr, ok := o.inner.(sweep.TripRunObserver)
	if !ok {
		return fmt.Errorf("perfbench: %T takes no trip runs", o.inner)
	}
	return o.timed(o.runs, func() error { return tr.ObserveTripRun(dest, run) })
}

func (o *tracedObserver) FinishTripRuns() error {
	tr, ok := o.inner.(sweep.TripRunObserver)
	if !ok {
		return fmt.Errorf("perfbench: %T takes no trip runs", o.inner)
	}
	return o.timed(o.runs, tr.FinishTripRuns)
}

func (o *tracedObserver) NewTripShard(delta int64, blocks, lanesPerBlock int) sweep.TripShard {
	so, ok := o.inner.(sweep.ShardedTripObserver)
	if !ok {
		return nil
	}
	return &tracedShard{inner: so.NewTripShard(delta, blocks, lanesPerBlock), o: o}
}

// tracedShard times a sharded observer's per-block trip scoring.
type tracedShard struct {
	inner sweep.TripShard
	o     *tracedObserver
}

func (s *tracedShard) ObserveTripBlock(block int, lanes [][]temporal.Trip) error {
	return s.o.timed(s.o.name, func() error { return s.inner.ObserveTripBlock(block, lanes) })
}

// tracedSource times the engine's event-buffer requests: a sort and
// canonicalise pass for in-memory streams, a skip-index slice for
// sorted columnar files.
type tracedSource struct {
	inner  sweep.StreamSource
	t      *tracer
	job    string
	parent *atomic.Int64
}

func (s *tracedSource) NumNodes() int  { return s.inner.NumNodes() }
func (s *tracedSource) NumEvents() int { return s.inner.NumEvents() }

func (s *tracedSource) EngineEvents(start, end int64, canonical bool) ([]linkstream.Event, bool, error) {
	id, t0 := s.t.open()
	ev, pre, err := s.inner.EngineEvents(start, end, canonical)
	name := "linkstream.sort"
	if pre {
		name = "linkstream.slice"
	}
	s.t.close(id, s.parent.Load(), name, s.job, t0)
	return ev, pre, err
}

// spanHeader carries a client span's ID to the server-side middleware
// so the handler span nests under the round trip that caused it. The
// program ignores headers it does not know.
const spanHeader = "X-Perfbench-Span"

// tracedTransport records one span per HTTP round trip and counts the
// response bytes read.
type tracedTransport struct {
	inner     http.RoundTripper
	t         *tracer
	name, job string
	parent    int64
	bytes     atomic.Int64
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, start := tt.t.open()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10)+" "+tt.job)
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		tt.t.close(id, tt.parent, tt.name, tt.job, start)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		tt.bytes.Add(n)
		tt.t.close(id, tt.parent, tt.name, tt.job, start)
	}}
	return resp, nil
}

// countingBody reports the bytes read when the body is closed, which
// is when the round trip's span ends.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// tracedHandler is server-side middleware: requests carrying a span
// header are recorded as children of that client span; all others
// pass straight through, so untraced traffic is not timed.
func tracedHandler(next http.Handler, t *tracer, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, job, _ := strings.Cut(r.Header.Get(spanHeader), " ")
		parent, err := strconv.ParseInt(ref, 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		id, start := t.open()
		next.ServeHTTP(w, r)
		t.close(id, parent, name, job, start)
	})
}
