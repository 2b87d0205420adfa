package temporal

// This file adds the forward, single-source counterpart of the backward
// sweep: answering "departing from src at or after a given time, when
// does each node receive the information?" — the query shape used by
// spreading analyses once the aggregation scale has been chosen — plus
// whole-graph reachability counting.

// EarliestArrivals computes, for temporal paths departing from src at a
// layer with key >= startKey, the earliest arrival key at every node
// (Unreachable if none) together with the minimum number of hops among
// paths arriving exactly at that key. arr[src] is Unreachable by
// convention (a node does not travel to itself).
func EarliestArrivals(cfg Config, layers []Layer, src int32, startKey int64) (arr []int64, hops []int32) {
	return EarliestArrivalsCSR(cfg, FromLayers(layers), src, startKey)
}

// EarliestArrivalsCSR is EarliestArrivals on the flat CSR arena.
func EarliestArrivalsCSR(cfg Config, c *CSR, src int32, startKey int64) (arr []int64, hops []int32) {
	arr = make([]int64, cfg.N)
	hops = make([]int32, cfg.N)
	for i := range arr {
		arr[i] = Unreachable
	}
	if int(src) >= cfg.N || src < 0 {
		return arr, hops
	}
	const infHops = int32(1 << 30)
	// minHops[w] = fewest hops needed to reach w at any time so far;
	// needed because a relay may be reachable later with fewer hops,
	// and downstream hop counts must use "fewest hops by a deadline",
	// not "fewest hops at the relay's own earliest arrival".
	minHops := make([]int32, cfg.N)
	for i := range minHops {
		minHops[i] = infHops
	}
	// Per-layer candidate scratch with the same epoch trick as the
	// backward engine, so paths cannot chain two hops inside one layer.
	candHop := make([]int32, cfg.N)
	mark := make([]int32, cfg.N)
	touched := make([]int32, 0, 64)
	epoch := int32(0)

	relax := func(to int32, h int32) {
		if mark[to] != epoch {
			mark[to] = epoch
			candHop[to] = h
			touched = append(touched, to)
		} else if h < candHop[to] {
			candHop[to] = h
		}
	}
	keys, off, ends := c.Keys, c.Off, c.Ends
	// First layer with key >= startKey: keys are strictly increasing.
	li0 := 0
	for li0 < len(keys) && keys[li0] < startKey {
		li0++
	}
	for li := li0; li < len(keys); li++ {
		key := keys[li]
		epoch++
		touched = touched[:0]
		for e2, hi2 := 2*off[li], 2*off[li+1]; e2 < hi2; e2 += 2 {
			u, v := ends[e2], ends[e2+1]
			// A link (u, v) carries information forward from u to v.
			if v != src {
				if u == src {
					relax(v, 1)
				} else if mh := minHops[u]; mh != infHops { // reached strictly before this layer
					relax(v, mh+1)
				}
			}
			if cfg.Directed || u == src {
				continue
			}
			if v == src {
				relax(u, 1)
			} else if mh := minHops[v]; mh != infHops {
				relax(u, mh+1)
			}
		}
		for _, x := range touched {
			if arr[x] == Unreachable {
				arr[x] = key
				hops[x] = candHop[x]
			}
			if candHop[x] < minHops[x] {
				minHops[x] = candHop[x]
			}
		}
	}
	return arr, hops
}

// CountReachablePairs returns the number of ordered pairs (u, v) with
// u != v such that a temporal path from u to v exists anywhere in the
// layered graph. It runs the blocked backward sweep, parallel over
// destination blocks.
func CountReachablePairs(cfg Config, layers []Layer) int64 {
	return CountReachablePairsCSR(cfg, FromLayers(layers))
}
