package sweep

import (
	"context"

	"errors"
	"math/rand"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/temporal"
)

// seededStream builds a deterministic workload: n nodes, perPair events
// per unordered pair at uniform times in [0, T), with random
// orientation so directed analyses are non-trivial.
func seededStream(t testing.TB, n, perPair int, T int64, seed int64) *linkstream.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := linkstream.New()
	s.EnsureNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for k := 0; k < perPair; k++ {
				a, b := int32(u), int32(v)
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
				if err := s.AddID(a, b, rng.Int63n(T)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

// probe records everything the engine hands an observer. Per the
// Observer contract, ObservePeriod writes only its own grid slot, so
// concurrent period callbacks never share state. With
// Needs.StreamTripRuns it concatenates the raw-stream trip runs, which
// arrive in increasing destination order, into streamTrips: the flat
// destination-major enumeration of the raw stream.
type probe struct {
	needs       Needs
	view        *StreamView
	periods     []*recordedPeriod
	streamTrips []temporal.Trip
}

type recordedPeriod struct {
	delta      int64
	numWindows int64
	trips      []temporal.Trip
	occ        []float64
	distances  temporal.DistanceStats
	windows    float64 // MeanDensity, as a fingerprint
}

func newProbe(needs Needs) *probe { return &probe{needs: needs} }

func (o *probe) Needs() Needs { return o.needs }
func (o *probe) Begin(v *StreamView) error {
	o.view = v
	o.periods = make([]*recordedPeriod, len(v.Grid))
	o.streamTrips = nil
	return nil
}
func (o *probe) ObserveTripRun(dest int32, run []temporal.Trip) error {
	o.streamTrips = append(o.streamTrips, run...)
	return nil
}
func (o *probe) FinishTripRuns() error { return nil }
func (o *probe) ObservePeriod(p *Period) error {
	rp := &recordedPeriod{delta: p.Delta, numWindows: p.NumWindows, distances: p.Distances, windows: p.Windows.MeanDensity}
	if o.needs.Trips {
		rp.trips = p.Trips()
	}
	if o.needs.Occupancies {
		for _, ch := range p.OccupancyChunks {
			rp.occ = append(rp.occ, ch...)
		}
	}
	o.periods[p.Index] = rp
	return nil
}

func allNeeds() Needs {
	return Needs{Trips: true, Occupancies: true, Distances: true, WindowStats: true, StreamTripRuns: true}
}

func TestRunBuildsEachPeriodOnce(t *testing.T) {
	s := seededStream(t, 8, 3, 5000, 1)
	grid := []int64{1, 7, 60, 500, 2500, 5000}
	for _, maxInFlight := range []int{0, 1, 2} {
		var st RunStats
		obs := newProbe(allNeeds())
		c := checkContract(t, obs)
		if err := Run(context.Background(), s, grid, Options{MaxInFlight: maxInFlight, Workers: 4, Stats: &st}, c); err != nil {
			t.Fatal(err)
		}
		c.verify()
		builds, alive := st.Builds, st.MaxResident
		if builds != int64(len(grid)) {
			t.Fatalf("MaxInFlight=%d: built %d period CSRs for %d grid entries", maxInFlight, builds, len(grid))
		}
		want := int64(maxInFlight)
		if maxInFlight == 0 {
			want = DefaultMaxInFlight
		}
		if alive > want {
			t.Fatalf("MaxInFlight=%d: %d periods resident at once", maxInFlight, alive)
		}
		for i := range grid {
			if obs.periods[i] == nil {
				t.Fatalf("period %d not observed", i)
			}
		}
	}
}

func TestStreamOnlyObserversBuildNothing(t *testing.T) {
	s := seededStream(t, 6, 2, 1000, 2)
	var st RunStats
	obs := newProbe(Needs{StreamTripRuns: true})
	c := checkContract(t, obs)
	if err := Run(context.Background(), s, []int64{10, 100}, Options{Workers: 2, MaxInFlight: 2, Stats: &st}, c); err != nil {
		t.Fatal(err)
	}
	c.verify()
	if st.Builds != 0 {
		t.Fatalf("stream-only run built %d period CSRs", st.Builds)
	}
	if len(obs.streamTrips) == 0 {
		t.Fatal("no stream trips collected")
	}
	if obs.periods[0] == nil || obs.periods[1] == nil {
		t.Fatal("not every period was observed")
	}
}

// TestProductsMatchDirectComputation checks every per-period product
// against the temporal package's direct entry points, for directed and
// undirected runs and several worker counts.
func TestProductsMatchDirectComputation(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := seededStream(t, 7, 2, 2000, seed)
			grid := []int64{3, 40, 700, 2000}
			obs := newProbe(allNeeds())
			if err := Run(context.Background(), s, grid, Options{Directed: directed, Workers: 3, MaxInFlight: 2}, obs); err != nil {
				t.Fatal(err)
			}
			// Stream trips match the reference enumeration as multisets
			// of trip values (the reference's parallel order varies).
			cfg := temporal.Config{N: s.NumNodes(), Directed: directed, Workers: 1}
			wantStream := temporal.CollectTrips(cfg, temporal.StreamLayers(s, directed))
			if got := obs.streamTrips; !sameTripMultiset(got, wantStream) {
				t.Fatalf("directed=%v seed=%d: stream trips mismatch (%d vs %d)", directed, seed, len(got), len(wantStream))
			}
			events := obs.view.Events
			var scratch temporal.CSRScratch
			for i, delta := range grid {
				rp := obs.periods[i]
				c := temporal.BuildCSR(events, obs.view.T0, delta, &scratch)
				wantTrips := temporal.CollectTripsCSR(temporal.Config{N: s.NumNodes(), Directed: directed, Workers: 1}, c)
				if len(rp.trips) != len(wantTrips) {
					t.Fatalf("delta=%d: %d trips, want %d", delta, len(rp.trips), len(wantTrips))
				}
				for j := range wantTrips {
					if rp.trips[j] != wantTrips[j] {
						t.Fatalf("delta=%d trip %d: %+v != %+v (order must be destination-major)", delta, j, rp.trips[j], wantTrips[j])
					}
				}
				wantOcc := temporal.OccupanciesCSR(temporal.Config{N: s.NumNodes(), Directed: directed, Workers: 1}, c)
				if !sameFloatMultiset(rp.occ, wantOcc) {
					t.Fatalf("delta=%d: occupancy multiset mismatch", delta)
				}
				wantDist := temporal.DistancesCSR(temporal.Config{N: s.NumNodes(), Directed: directed, Workers: 1}, c, 0, 1)
				if rp.distances != wantDist {
					t.Fatalf("delta=%d: distances %+v != %+v", delta, rp.distances, wantDist)
				}
			}
		}
	}
}

func sameTripMultiset(a, b []temporal.Trip) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[temporal.Trip]int, len(a))
	for _, tr := range a {
		count[tr]++
	}
	for _, tr := range b {
		count[tr]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func sameFloatMultiset(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[float64]int, len(a))
	for _, v := range a {
		count[v]++
	}
	for _, v := range b {
		count[v]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestDistanceObserver(t *testing.T) {
	s := seededStream(t, 6, 2, 1000, 4)
	grid := []int64{5, 50, 1000}
	obs := NewDistanceObserver()
	if err := Run(context.Background(), s, grid, Options{Workers: 2}, obs); err != nil {
		t.Fatal(err)
	}
	pts := obs.Points()
	if len(pts) != len(grid) {
		t.Fatalf("got %d points", len(pts))
	}
	s.Sort()
	events := linkstream.Canonical(s.Events())
	var scratch temporal.CSRScratch
	for i, delta := range grid {
		c := temporal.BuildCSR(events, events[0].T, delta, &scratch)
		want := temporal.DistancesCSR(temporal.Config{N: s.NumNodes(), Workers: 1}, c, 0, 1)
		p := pts[i]
		if p.Delta != delta || p.MeanTime != want.MeanTime || p.MeanHops != want.MeanHops || p.FinitePairs != want.Count {
			t.Fatalf("delta=%d: %+v != %+v", delta, p, want)
		}
		if p.MeanAbsTime != float64(delta)*want.MeanTime {
			t.Fatalf("delta=%d: abs time %v", delta, p.MeanAbsTime)
		}
	}
}

func TestRunErrors(t *testing.T) {
	empty := linkstream.New()
	if err := Run(context.Background(), empty, []int64{1}, Options{}, newProbe(Needs{})); !errors.Is(err, ErrNoEvents) {
		t.Fatalf("empty stream: %v", err)
	}
	s := seededStream(t, 4, 1, 100, 5)
	if err := Run(context.Background(), s, nil, Options{}, newProbe(Needs{})); err == nil {
		t.Fatal("empty grid should error")
	}
	if err := Run(context.Background(), s, []int64{0}, Options{}, newProbe(Needs{})); err == nil {
		t.Fatal("non-positive delta should error")
	}
	if err := Run(context.Background(), s, []int64{10}, Options{}); err == nil {
		t.Fatal("no observers should error")
	}
}

// failingObserver errors on a chosen period to exercise abort paths.
type failingObserver struct {
	probe
	failAt int
}

func (o *failingObserver) ObservePeriod(p *Period) error {
	if p.Index == o.failAt {
		return errors.New("boom")
	}
	return o.probe.ObservePeriod(p)
}

func TestObserverErrorAborts(t *testing.T) {
	s := seededStream(t, 6, 2, 1000, 6)
	obs := &failingObserver{probe: *newProbe(allNeeds()), failAt: 1}
	err := Run(context.Background(), s, []int64{2, 20, 200, 1000}, Options{Workers: 2, MaxInFlight: 2}, obs)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestHistogramMode(t *testing.T) {
	s := seededStream(t, 6, 3, 1000, 7)
	grid := []int64{4, 40, 400}
	counts := make([]int64, len(grid))
	obs := observerFunc{
		needs: Needs{Occupancies: true},
		observe: func(p *Period) error {
			if p.Histogram == nil {
				return errors.New("no histogram in histogram mode")
			}
			counts[p.Index] = p.Histogram.N()
			return nil
		},
	}
	if err := Run(context.Background(), s, grid, Options{HistogramBins: 64, Workers: 2}, obs); err != nil {
		t.Fatal(err)
	}
	s.Sort()
	events := linkstream.Canonical(s.Events())
	var scratch temporal.CSRScratch
	for i, delta := range grid {
		c := temporal.BuildCSR(events, events[0].T, delta, &scratch)
		occ := temporal.OccupanciesCSR(temporal.Config{N: s.NumNodes(), Workers: 1}, c)
		if counts[i] != int64(len(occ)) {
			t.Fatalf("delta=%d: histogram counted %d values, want %d", delta, counts[i], len(occ))
		}
	}
}

// observerFunc adapts closures to the Observer interface.
type observerFunc struct {
	needs   Needs
	begin   func(v *StreamView) error
	observe func(p *Period) error
}

func (o observerFunc) Needs() Needs { return o.needs }
func (o observerFunc) Begin(v *StreamView) error {
	if o.begin != nil {
		return o.begin(v)
	}
	return nil
}
func (o observerFunc) ObservePeriod(p *Period) error {
	if o.observe != nil {
		return o.observe(p)
	}
	return nil
}
