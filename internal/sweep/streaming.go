package sweep

// This file implements the bounded streaming enumeration behind
// Needs.StreamTripRuns: the raw stream's minimal trips are produced by
// the blocked lane sweep, parallel over destination blocks, and
// delivered to consumers as per-destination runs in strictly increasing
// destination order — concatenated, they are temporal.CollectTripsCSR's
// destination-major slice — without ever materialising that slice. Blocks that complete
// ahead of the delivery cursor wait in a reorder window bounded by
// Options.MaxInFlight, so peak trip residency scales with the in-flight
// runs, not with the stream's total trip population.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/temporal"
)

// streamTripRuns sweeps every destination block of the raw-stream CSR
// and hands each destination's run to deliver, in increasing
// destination order (empty runs are skipped). Delivery is serialised;
// run memory is recycled as soon as deliver returns. The first deliver
// error — or ctx.Err() once ctx is cancelled — stops the enumeration
// and is returned; cancelled enumerations still recycle every lane and
// join every worker before returning.
func streamTripRuns(ctx context.Context, c *temporal.CSR, n int, opt Options, deliver func(dest int32, run []temporal.Trip) error) error {
	width := temporal.ResolveLaneWidth(opt.LaneWidth)
	blocks := temporal.DestBlocksFor(n, width)
	inFlight := opt.MaxInFlight
	if inFlight <= 0 {
		inFlight = DefaultMaxInFlight
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	// Workers beyond the reorder window would only queue on it.
	if workers > inFlight {
		workers = inFlight
	}
	if workers < 1 {
		workers = 1
	}

	deliverBlock := func(b int, lanes [][]temporal.Trip) error {
		for l, run := range lanes {
			d := b*width + l
			if d >= n {
				break
			}
			if len(run) == 0 {
				continue
			}
			if err := deliver(int32(d), run); err != nil {
				return err
			}
		}
		temporal.RecycleTrips(lanes...)
		return nil
	}

	if workers == 1 {
		// Sequential: sweep, deliver, recycle — one block resident.
		wk := temporal.NewWorkerWidth(n, width)
		defer wk.Release()
		lanes := make([][]temporal.Trip, width)
		for b := 0; b < blocks; b++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			wk.SweepFullBlock(c, opt.Directed, b, true, false, nil, lanes)
			if err := deliverBlock(b, lanes); err != nil {
				return err
			}
			clear(lanes)
		}
		return nil
	}

	var (
		mu      sync.Mutex
		ready   = make([][][]temporal.Trip, blocks)
		cursor  int
		sem     = make(chan struct{}, inFlight)
		next    atomic.Int64
		aborted atomic.Bool
		errMu   sync.Mutex
		first   error
	)
	fail := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
		aborted.Store(true)
	}
	// drain advances the delivery cursor over the completed contiguous
	// prefix; called under mu. After an abort it keeps advancing —
	// recycling, not delivering — so blocked producers always regain
	// their semaphore slots.
	drain := func() {
		for cursor < blocks && ready[cursor] != nil {
			lanes := ready[cursor]
			ready[cursor] = nil
			if aborted.Load() {
				temporal.RecycleTrips(lanes...)
			} else if err := deliverBlock(cursor, lanes); err != nil {
				fail(err)
			}
			cursor++
			<-sem
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := temporal.NewWorkerWidth(n, width)
			defer wk.Release()
			for {
				if aborted.Load() {
					// Stop claiming; blocks already claimed have been
					// (or will be) stored, so drain never stalls.
					return
				}
				// Acquire the reorder slot before claiming a block, so
				// every claimed block's producer already owns a slot and
				// the delivery cursor can never starve behind a claimant
				// waiting on the window. A cancelled ctx aborts instead
				// of waiting: blocks this producer never claimed need no
				// slot, and drain keeps advancing over claimed ones.
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					fail(ctx.Err())
					return
				}
				b := int(next.Add(1) - 1)
				if b >= blocks {
					<-sem
					return
				}
				// Each claimed block gets its own lane table: the sweep's
				// out slices park in the reorder window until the cursor
				// reaches them, so worker scratch cannot be shared.
				lanes := make([][]temporal.Trip, width)
				if !aborted.Load() {
					wk.SweepFullBlock(c, opt.Directed, b, true, false, nil, lanes)
				}
				mu.Lock()
				ready[b] = lanes
				drain()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	return first
}
