package temporal

// destState is the scratch memory of the slice-based, single-destination
// backward sweep: the test oracle the blocked CSR kernels (csr.go,
// lanes.go) are checked against. It shares no code with them — plain
// per-node arrays, epoch-stamped candidates and an explicit
// "relay is the destination" branch — so agreement is independent
// evidence.
type destState struct {
	arr     []int64 // earliest arrival at dest for departures >= current key
	hop     []int32 // min hops among paths realising arr
	segKey  []int64 // key at which (arr, hop) became active
	candArr []int64 // per-layer candidate arrival
	candHop []int32
	mark    []int64 // epoch stamps for candArr/candHop
	touched []int32
	epoch   int64
}

func newDestState(n int) *destState {
	return &destState{
		arr:     make([]int64, n),
		hop:     make([]int32, n),
		segKey:  make([]int64, n),
		candArr: make([]int64, n),
		candHop: make([]int32, n),
		mark:    make([]int64, n),
		touched: make([]int32, 0, 64),
	}
}

// run performs one backward sweep for destination dest. visit, if non
// nil, receives every minimal trip (u, dest, dep, arr, hops) in order of
// strictly decreasing dep per source. acc, if non nil, accumulates the
// distance sums for all start times >= acc.kMin.
func (st *destState) run(dest int32, layers []Layer, directed bool, visit func(u int32, dep, arr int64, hops int32), acc *distAcc) {
	n := len(st.arr)
	for i := 0; i < n; i++ {
		st.arr[i] = Unreachable
		st.hop[i] = 0
		st.segKey[i] = 0
		st.mark[i] = 0
	}
	st.epoch = 0

	relax := func(x, via int32, key int64) {
		if x == dest {
			return
		}
		var ca int64
		var ch int32
		if via == dest {
			ca, ch = key, 1
		} else if a := st.arr[via]; a != Unreachable {
			ca, ch = a, st.hop[via]+1
		} else {
			return
		}
		// Discard candidates that cannot improve on the standing value.
		if ca > st.arr[x] || (ca == st.arr[x] && ch >= st.hop[x]) {
			return
		}
		if st.mark[x] != st.epoch {
			st.mark[x] = st.epoch
			st.candArr[x] = ca
			st.candHop[x] = ch
			st.touched = append(st.touched, x)
			return
		}
		if ca < st.candArr[x] || (ca == st.candArr[x] && ch < st.candHop[x]) {
			st.candArr[x] = ca
			st.candHop[x] = ch
		}
	}

	for li := len(layers) - 1; li >= 0; li-- {
		layer := layers[li]
		key := layer.Key
		st.epoch++
		st.touched = st.touched[:0]
		for _, e := range layer.Edges {
			// A directed link (u, v) lets u move to v; the backward state
			// of v (arrival departing >= key+1) therefore relaxes u.
			relax(e.U, e.V, key)
			if !directed {
				relax(e.V, e.U, key)
			}
		}
		for _, x := range st.touched {
			ca, ch := st.candArr[x], st.candHop[x]
			switch {
			case ca < st.arr[x]:
				if acc != nil && st.arr[x] != Unreachable {
					acc.addSegment(st.arr[x], key+1, st.segKey[x], st.hop[x])
				}
				st.arr[x] = ca
				st.hop[x] = ch
				st.segKey[x] = key
				if visit != nil {
					visit(x, key, ca, ch)
				}
			case ca == st.arr[x] && ch < st.hop[x]:
				// Same earliest arrival reachable with fewer hops when
				// departing earlier: not a minimal trip (the interval
				// strictly contains an existing one) but the hop count
				// must be refreshed for upstream relaxations and for
				// dhops segment tracking.
				if acc != nil {
					acc.addSegment(st.arr[x], key+1, st.segKey[x], st.hop[x])
				}
				st.hop[x] = ch
				st.segKey[x] = key
			}
		}
	}

	if acc != nil {
		for u := int32(0); int(u) < n; u++ {
			if u == dest || st.arr[u] == Unreachable {
				continue
			}
			acc.addSegment(st.arr[u], acc.kMin, st.segKey[u], st.hop[u])
		}
	}
}
