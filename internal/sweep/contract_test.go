package sweep

import (
	"sync"
	"testing"

	"repro/internal/temporal"
)

// contractObserver wraps an Observer and checks the engine's delivery
// contract on every call: Begin exactly once and before anything else,
// raw-stream trip runs with strictly increasing destinations and
// finished before any period, and every grid index observed exactly
// once. It forwards every call — the TripRunObserver and
// ShardedTripObserver extensions included — to the wrapped observer,
// so wrapping never changes what a run computes. ObservePeriod may run
// concurrently, so the bookkeeping sits behind a mutex; violations are
// reported with t.Errorf, which is safe from engine goroutines.
type contractObserver struct {
	t     testing.TB
	inner Observer

	mu       sync.Mutex
	begins   int
	seen     []bool
	lastDest int32
	finished bool
}

// checkContract wraps o in a contract checker reporting to t.
func checkContract(t testing.TB, o Observer) *contractObserver {
	return &contractObserver{t: t, inner: o, lastDest: -1}
}

// checkContracts wraps every observer of obs.
func checkContracts(t testing.TB, obs ...Observer) []*contractObserver {
	out := make([]*contractObserver, len(obs))
	for i, o := range obs {
		out[i] = checkContract(t, o)
	}
	return out
}

// observers returns cs as the engine's observer list.
func observers(cs []*contractObserver) []Observer {
	out := make([]Observer, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

func (c *contractObserver) Needs() Needs { return c.inner.Needs() }

func (c *contractObserver) Begin(v *StreamView) error {
	c.mu.Lock()
	c.begins++
	if c.begins > 1 {
		c.t.Errorf("%T: Begin called %d times", c.inner, c.begins)
	}
	c.seen = make([]bool, len(v.Grid))
	c.mu.Unlock()
	return c.inner.Begin(v)
}

func (c *contractObserver) ObserveTripRun(dest int32, run []temporal.Trip) error {
	c.mu.Lock()
	switch {
	case c.begins == 0:
		c.t.Errorf("%T: ObserveTripRun(%d) before Begin", c.inner, dest)
	case c.finished:
		c.t.Errorf("%T: ObserveTripRun(%d) after FinishTripRuns", c.inner, dest)
	case dest <= c.lastDest:
		c.t.Errorf("%T: trip-run destination %d after %d, want strictly increasing", c.inner, dest, c.lastDest)
	}
	c.lastDest = dest
	c.mu.Unlock()
	return c.inner.(TripRunObserver).ObserveTripRun(dest, run)
}

func (c *contractObserver) FinishTripRuns() error {
	c.mu.Lock()
	if c.finished {
		c.t.Errorf("%T: FinishTripRuns called twice", c.inner)
	}
	c.finished = true
	c.mu.Unlock()
	return c.inner.(TripRunObserver).FinishTripRuns()
}

func (c *contractObserver) NewTripShard(delta int64, blocks, lanesPerBlock int) TripShard {
	return c.inner.(ShardedTripObserver).NewTripShard(delta, blocks, lanesPerBlock)
}

func (c *contractObserver) ObservePeriod(p *Period) error {
	c.mu.Lock()
	switch {
	case c.begins == 0:
		c.t.Errorf("%T: period %d observed before Begin", c.inner, p.Index)
	case p.Index < 0 || p.Index >= len(c.seen):
		c.t.Errorf("%T: period index %d outside a grid of %d", c.inner, p.Index, len(c.seen))
	case c.seen[p.Index]:
		c.t.Errorf("%T: period %d observed twice", c.inner, p.Index)
	default:
		c.seen[p.Index] = true
	}
	if c.inner.Needs().StreamTripRuns && !c.finished {
		c.t.Errorf("%T: period %d observed before FinishTripRuns", c.inner, p.Index)
	}
	c.mu.Unlock()
	return c.inner.ObservePeriod(p)
}

// verify checks the end state of a completed run: Begin exactly once,
// trip runs finished when requested, and no grid index left unobserved.
func (c *contractObserver) verify() {
	c.t.Helper()
	c.check(true)
}

// verifyAborted checks the end state of a cancelled or failed run, where
// periods and FinishTripRuns may legitimately be missing: Begin exactly
// once. Duplicate period indices and out-of-order trip runs are caught
// as they are delivered, on every run.
func (c *contractObserver) verifyAborted() {
	c.t.Helper()
	c.check(false)
}

func (c *contractObserver) check(complete bool) {
	c.t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.begins != 1 {
		c.t.Errorf("%T: Begin called %d times, want 1", c.inner, c.begins)
		return
	}
	if !complete {
		return
	}
	if c.inner.Needs().StreamTripRuns && !c.finished {
		c.t.Errorf("%T: FinishTripRuns never called", c.inner)
	}
	for i, ok := range c.seen {
		if !ok {
			c.t.Errorf("%T: period %d never observed", c.inner, i)
		}
	}
}

// verifyAll verifies every checker of cs.
func verifyAll(cs []*contractObserver) {
	for _, c := range cs {
		c.verify()
	}
}

// verifyRun checks cs after a run that returned err: the full contract
// when the run completed, the aborted-run contract when it was
// cancelled or failed.
func verifyRun(err error, cs ...*contractObserver) {
	for _, c := range cs {
		if err == nil {
			c.verify()
		} else {
			c.verifyAborted()
		}
	}
}

// TestContractObserverCatchesViolations drives the checker by hand with
// every violation it exists to catch, against a recording TB.
func TestContractObserverCatchesViolations(t *testing.T) {
	view := &StreamView{Grid: []int64{1, 2}}
	cases := []struct {
		name  string
		needs Needs
		drive func(c *contractObserver)
	}{
		{"begin twice", Needs{}, func(c *contractObserver) {
			c.Begin(view)
			c.Begin(view)
		}},
		{"no begin", Needs{}, func(c *contractObserver) {}},
		{"period before begin", Needs{}, func(c *contractObserver) {
			c.ObservePeriod(&Period{Index: 0})
		}},
		{"duplicate period", Needs{}, func(c *contractObserver) {
			c.Begin(view)
			c.ObservePeriod(&Period{Index: 0})
			c.ObservePeriod(&Period{Index: 0})
			c.ObservePeriod(&Period{Index: 1})
		}},
		{"missing period", Needs{}, func(c *contractObserver) {
			c.Begin(view)
			c.ObservePeriod(&Period{Index: 1})
		}},
		{"period before finish", Needs{StreamTripRuns: true}, func(c *contractObserver) {
			c.Begin(view)
			c.ObservePeriod(&Period{Index: 0})
			c.FinishTripRuns()
			c.ObservePeriod(&Period{Index: 1})
		}},
		{"destinations not increasing", Needs{StreamTripRuns: true}, func(c *contractObserver) {
			c.Begin(view)
			c.ObserveTripRun(3, nil)
			c.ObserveTripRun(3, nil)
			c.FinishTripRuns()
			c.ObservePeriod(&Period{Index: 0})
			c.ObservePeriod(&Period{Index: 1})
		}},
	}
	for _, tc := range cases {
		rec := &recordingTB{TB: t}
		c := checkContract(rec, &nopRunObserver{needs: tc.needs})
		tc.drive(c)
		c.verify()
		if rec.errors == 0 {
			t.Errorf("%s: violation not reported", tc.name)
		}
	}

	// A faithful delivery passes.
	rec := &recordingTB{TB: t}
	c := checkContract(rec, &nopRunObserver{needs: Needs{StreamTripRuns: true}})
	c.Begin(view)
	c.ObserveTripRun(0, nil)
	c.ObserveTripRun(4, nil)
	c.FinishTripRuns()
	c.ObservePeriod(&Period{Index: 1})
	c.ObservePeriod(&Period{Index: 0})
	c.verify()
	if rec.errors != 0 {
		t.Fatalf("faithful delivery reported %d violations", rec.errors)
	}
}

// recordingTB counts Errorf calls instead of failing the test.
type recordingTB struct {
	testing.TB
	mu     sync.Mutex
	errors int
}

func (r *recordingTB) Errorf(string, ...any) {
	r.mu.Lock()
	r.errors++
	r.mu.Unlock()
}

func (r *recordingTB) Helper() {}

// nopRunObserver accepts every call.
type nopRunObserver struct{ needs Needs }

func (o *nopRunObserver) Needs() Needs                                { return o.needs }
func (o *nopRunObserver) Begin(*StreamView) error                     { return nil }
func (o *nopRunObserver) ObservePeriod(*Period) error                 { return nil }
func (o *nopRunObserver) ObserveTripRun(int32, []temporal.Trip) error { return nil }
func (o *nopRunObserver) FinishTripRuns() error                       { return nil }
