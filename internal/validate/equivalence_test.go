package validate

import (
	"context"

	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

func mixedStream(t testing.TB, n, perPair int, T int64, seed int64) *linkstream.Stream {
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

// TestTransitionLossMatchesReference asserts the engine-backed curve
// reproduces the seed implementation exactly on seeded workloads,
// directed and undirected.
func TestTransitionLossMatchesReference(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := mixedStream(t, 7, 2, 2500, seed)
			grid := []int64{1, 17, 150, 2500}
			want, err := TransitionLossCurveReference(s, grid, Options{Directed: directed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			obs := NewTransitionLossObserver()
			if err := sweep.Run(context.Background(), s, grid, sweep.Options{Directed: directed, Workers: 3, MaxInFlight: 2}, obs); err != nil {
				t.Fatal(err)
			}
			got := obs.Points()
			if len(got) != len(want) {
				t.Fatalf("got %d points, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("directed=%v seed=%d point %d: %+v != %+v", directed, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestElongationMatchesReference asserts the engine-backed curve
// reproduces the seed implementation exactly. The reference runs with
// Workers = 1, which fixes its trip enumeration to destination-major
// order — the order the engine guarantees for any worker count — and
// both implementations fold the elongation sum as per-destination
// subtotals in destination order, so the floating-point results must be
// bit-identical for every worker count and in-flight bound.
func TestElongationMatchesReference(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := mixedStream(t, 7, 2, 2500, seed)
			grid := []int64{1, 17, 150, 800, 2500}
			want, err := ElongationCurveReference(s, grid, Options{Directed: directed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				for _, inFlight := range []int{1, 2, 0} {
					obs := NewElongationObserver()
					if err := sweep.Run(context.Background(), s, grid, sweep.Options{Directed: directed, Workers: workers, MaxInFlight: inFlight}, obs); err != nil {
						t.Fatal(err)
					}
					got := obs.Points()
					if len(got) != len(want) {
						t.Fatalf("got %d points, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("directed=%v seed=%d workers=%d inflight=%d point %d: %+v != %+v",
								directed, seed, workers, inFlight, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestStreamingObserversMatchEagerObservers runs the streaming
// observers (incremental pair index off trip runs, sharded period
// scans) and the eager reference observers below in the same fused
// engine pass, across seeds × orientations × workers × in-flight
// bounds, and requires bit-identical curves — the tentpole guarantee
// that streaming the trip pipeline never changes a result.
func TestStreamingObserversMatchEagerObservers(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := mixedStream(t, 8, 2, 3000, seed)
			grid := []int64{1, 12, 90, 700, 3000}
			for _, workers := range []int{1, 3} {
				for _, inFlight := range []int{1, 2, 0} {
					loss := NewTransitionLossObserver()
					lossRef := NewTransitionLossObserverReference()
					elong := NewElongationObserver()
					elongRef := NewElongationObserverReference()
					err := sweep.Run(context.Background(), s, grid,
						sweep.Options{Directed: directed, Workers: workers, MaxInFlight: inFlight},
						loss, lossRef, elong, elongRef)
					if err != nil {
						t.Fatal(err)
					}
					for i := range grid {
						if loss.Points()[i] != lossRef.Points()[i] {
							t.Fatalf("directed=%v seed=%d workers=%d inflight=%d loss point %d: streaming %+v != eager %+v",
								directed, seed, workers, inFlight, i, loss.Points()[i], lossRef.Points()[i])
						}
						if elong.Points()[i] != elongRef.Points()[i] {
							t.Fatalf("directed=%v seed=%d workers=%d inflight=%d elongation point %d: streaming %+v != eager %+v",
								directed, seed, workers, inFlight, i, elong.Points()[i], elongRef.Points()[i])
						}
					}
				}
			}
		}
	}
}

// streamTrips enumerates the minimal trips of the view's raw stream
// (layer per distinct timestamp) as one flat destination-major slice,
// with the same CSR build the engine runs for its trip-run pipeline.
func streamTrips(v *sweep.StreamView) []temporal.Trip {
	var scratch temporal.CSRScratch
	cfg := temporal.Config{N: v.N, Directed: v.Directed}
	return temporal.CollectTripsCSR(cfg, temporal.BuildCSR(v.Events, 0, 1, &scratch))
}

// TransitionLossObserverReference is the eager transition-loss
// observer the streaming TransitionLossObserver is checked against:
// Begin materialises the stream's trips as one flat slice and filters
// the two-hop spans. Results must be identical; memory is O(stream
// trips) instead of O(in-flight runs).
type TransitionLossObserverReference struct {
	t0     int64
	spans  []tripSpan
	points []LossPoint
}

// NewTransitionLossObserverReference returns an empty eager
// transition-loss observer.
func NewTransitionLossObserverReference() *TransitionLossObserverReference {
	return &TransitionLossObserverReference{}
}

// Needs implements sweep.Observer.
func (o *TransitionLossObserverReference) Needs() sweep.Needs {
	return sweep.Needs{}
}

// Begin implements sweep.Observer.
func (o *TransitionLossObserverReference) Begin(v *sweep.StreamView) error {
	o.t0 = v.T0
	o.spans = o.spans[:0]
	for _, tr := range streamTrips(v) {
		if tr.Hops == 2 {
			o.spans = append(o.spans, tripSpan{dep: tr.Dep, arr: tr.Arr})
		}
	}
	o.points = make([]LossPoint, len(v.Grid))
	return nil
}

// ObservePeriod implements sweep.Observer.
func (o *TransitionLossObserverReference) ObservePeriod(p *sweep.Period) error {
	o.points[p.Index] = lossPoint(o.spans, o.t0, p.Delta)
	return nil
}

// Points returns the loss curve in grid order.
func (o *TransitionLossObserverReference) Points() []LossPoint { return o.points }

// ElongationObserverReference is the eager elongation observer the
// streaming ElongationObserver is checked against: the pair index is
// built in Begin from the flat raw-stream trip slice, and each period
// sequentially scans the whole TripBlocks the engine kept resident. The per-lane subtotal fold makes its
// floating-point sums bit-identical to the sharded streaming
// ElongationObserver.
type ElongationObserverReference struct {
	t0     int64
	idx    *pairIndex
	points []ElongationPoint
}

// NewElongationObserverReference returns an empty eager elongation
// observer.
func NewElongationObserverReference() *ElongationObserverReference {
	return &ElongationObserverReference{}
}

// Needs implements sweep.Observer.
func (o *ElongationObserverReference) Needs() sweep.Needs {
	return sweep.Needs{Trips: true}
}

// Begin implements sweep.Observer.
func (o *ElongationObserverReference) Begin(v *sweep.StreamView) error {
	o.t0 = v.T0
	o.idx = buildPairIndex(v.N, streamTrips(v))
	o.points = make([]ElongationPoint, len(v.Grid))
	return nil
}

// ObservePeriod implements sweep.Observer. It iterates the engine's
// trip blocks in order — the trip order of consecutive
// single-destination backward sweeps — accumulating one subtotal per
// lane and folding the subtotals in lane order.
func (o *ElongationObserverReference) ObservePeriod(p *sweep.Period) error {
	pt := ElongationPoint{Delta: p.Delta}
	sum := 0.0
	for _, blk := range p.TripBlocks {
		var lsum float64
		var ltrips int
		for _, tr := range blk {
			if tr.Dep == tr.Arr {
				continue
			}
			a := o.t0 + tr.Dep*p.Delta
			b := o.t0 + (tr.Arr+1)*p.Delta - 1
			durL, ok := o.idx.minDurationWithin(tr.U, tr.V, a, b)
			if !ok || durL <= 0 {
				pt.Unmatched++
				continue
			}
			lsum += float64(tr.Arr-tr.Dep+1) * float64(p.Delta) / float64(durL)
			ltrips++
		}
		if ltrips > 0 {
			sum += lsum
			pt.Trips += ltrips
		}
	}
	if pt.Trips > 0 {
		pt.MeanElongation = sum / float64(pt.Trips)
	}
	o.points[p.Index] = pt
	return nil
}

// Points returns the elongation curve in grid order.
func (o *ElongationObserverReference) Points() []ElongationPoint { return o.points }

// BenchmarkStreamingTripsReference is the eager counterpart of the
// root package's BenchmarkStreamingTrips: the same Irvine-shaped stream
// and grid, scored by the reference observers (flat raw-stream trip
// slice per observer, whole-period TripBlocks, sequential scan) instead
// of the streaming ones. Results are bit-identical; the difference is
// residency.
func BenchmarkStreamingTripsReference(b *testing.B) {
	s, err := datasets.Irvine().Stream()
	if err != nil {
		b.Fatal(err)
	}
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := NewTransitionLossObserverReference()
		elong := NewElongationObserverReference()
		if err := sweep.Run(context.Background(), s, grid, sweep.Options{MaxInFlight: 2}, loss, elong); err != nil {
			b.Fatal(err)
		}
	}
}
