package temporal

// This file holds the lane-width machinery of the blocked backward
// sweep: the width heuristic, the validation helpers shared by every
// configuration surface, and the hand-unrolled relax kernels. The
// blocked sweep processes `width` destinations per pass over the
// layers; blocking amortises the edge stream (loads, loop control)
// across lanes, so widening the block halves the number of layer
// passes per destination set. The Go compiler does not unroll the
// short per-edge lane loop, so each supported width gets its own
// straight-line kernel — relaxLanes4 and relaxLanes8 are the
// "compile-time instantiated" variants the engine picks between once,
// at sweep-state construction. Lanes are fully independent: a slot
// only ever compares and assigns its own lane's state, so for every
// width the per-destination sequence of relaxations and commits is
// identical to a single-destination sweep's — the slice-based oracle in
// the package tests — and every product (trips, occupancies, distance
// segments) is bit-exact across widths.

import (
	"math/bits"
	"runtime"
)

// MaxLaneWidth is the widest compiled sweep kernel; sweepState's
// per-lane sink array is sized to it.
const MaxLaneWidth = 8

// DefaultLaneWidth returns the lane width the blocked sweep uses when
// no explicit width is configured: 8 on the 64-byte-cache-line
// architectures (a node's 8 packed int64 lanes span exactly one cache
// line, and the wider block halves the layer passes per destination
// set), 4 elsewhere. The heuristic is keyed on the build architecture
// alone, so it is deterministic for a given binary.
func DefaultLaneWidth() int {
	switch runtime.GOARCH {
	case "amd64", "arm64":
		return 8
	default:
		return 4
	}
}

// ValidLaneWidth reports whether w is an accepted lane-width setting:
// 0 (auto — DefaultLaneWidth) or one of the compiled kernel widths.
func ValidLaneWidth(w int) bool { return w == 0 || w == 4 || w == 8 }

// ResolveLaneWidth maps a configured lane width to a kernel width:
// 0 selects DefaultLaneWidth, 4 and 8 select their hand-unrolled
// kernels. Callers validate with ValidLaneWidth first; anything else
// panics.
func ResolveLaneWidth(w int) int {
	switch w {
	case 0:
		return DefaultLaneWidth()
	case 4, 8:
		return w
	}
	panic("temporal: unsupported lane width")
}

// laneShift returns log2(width), the shift that maps a blocked state
// slot to its node (slot >> shift) with lane = slot & (width-1).
func laneShift(width int) uint { return uint(bits.TrailingZeros(uint(width))) }

// relaxLanes4 relaxes one layer's edge list over the 4-lane blocked
// state: for every link (u, v), v's standing state (arrival departing
// at the next layer) relaxes u — and u's relaxes v when the analysis
// is undirected — independently per lane. Slots whose candidate became
// active are appended to touched, which is returned. The body is
// manually unrolled over the lanes: the compiler does not unroll the
// short inner loop, and the whole point of blocking is straight-line
// work per edge.
func relaxLanes4(nodeB, candB []int64, edges []int32, directed bool, touched []int32) []int32 {
	for j := 0; j+1 < len(edges); j += 2 {
		bu := 4 * int(edges[j])
		bv := 4 * int(edges[j+1])
		nu := nodeB[bu : bu+4 : bu+4]
		nv := nodeB[bv : bv+4 : bv+4]
		pu0, pu1, pu2, pu3 := nu[0], nu[1], nu[2], nu[3]
		pv0, pv1, pv2, pv3 := nv[0], nv[1], nv[2], nv[3]
		if p := pv0 + 1; p < pu0 {
			if cnd := candB[bu]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu))
				}
				candB[bu] = p
			}
		}
		if p := pv1 + 1; p < pu1 {
			if cnd := candB[bu+1]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+1))
				}
				candB[bu+1] = p
			}
		}
		if p := pv2 + 1; p < pu2 {
			if cnd := candB[bu+2]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+2))
				}
				candB[bu+2] = p
			}
		}
		if p := pv3 + 1; p < pu3 {
			if cnd := candB[bu+3]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+3))
				}
				candB[bu+3] = p
			}
		}
		if directed {
			continue
		}
		if p := pu0 + 1; p < pv0 {
			if cnd := candB[bv]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv))
				}
				candB[bv] = p
			}
		}
		if p := pu1 + 1; p < pv1 {
			if cnd := candB[bv+1]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+1))
				}
				candB[bv+1] = p
			}
		}
		if p := pu2 + 1; p < pv2 {
			if cnd := candB[bv+2]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+2))
				}
				candB[bv+2] = p
			}
		}
		if p := pu3 + 1; p < pv3 {
			if cnd := candB[bv+3]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+3))
				}
				candB[bv+3] = p
			}
		}
	}
	return touched
}

// relaxLanes8 is relaxLanes4 widened to the 8-lane kernel: one (u, v)
// edge read feeds eight independent relaxations, so a destination set
// costs half the layer passes of the 4-lane sweep.
func relaxLanes8(nodeB, candB []int64, edges []int32, directed bool, touched []int32) []int32 {
	for j := 0; j+1 < len(edges); j += 2 {
		bu := 8 * int(edges[j])
		bv := 8 * int(edges[j+1])
		nu := nodeB[bu : bu+8 : bu+8]
		nv := nodeB[bv : bv+8 : bv+8]
		pu0, pu1, pu2, pu3 := nu[0], nu[1], nu[2], nu[3]
		pu4, pu5, pu6, pu7 := nu[4], nu[5], nu[6], nu[7]
		pv0, pv1, pv2, pv3 := nv[0], nv[1], nv[2], nv[3]
		pv4, pv5, pv6, pv7 := nv[4], nv[5], nv[6], nv[7]
		if p := pv0 + 1; p < pu0 {
			if cnd := candB[bu]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu))
				}
				candB[bu] = p
			}
		}
		if p := pv1 + 1; p < pu1 {
			if cnd := candB[bu+1]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+1))
				}
				candB[bu+1] = p
			}
		}
		if p := pv2 + 1; p < pu2 {
			if cnd := candB[bu+2]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+2))
				}
				candB[bu+2] = p
			}
		}
		if p := pv3 + 1; p < pu3 {
			if cnd := candB[bu+3]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+3))
				}
				candB[bu+3] = p
			}
		}
		if p := pv4 + 1; p < pu4 {
			if cnd := candB[bu+4]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+4))
				}
				candB[bu+4] = p
			}
		}
		if p := pv5 + 1; p < pu5 {
			if cnd := candB[bu+5]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+5))
				}
				candB[bu+5] = p
			}
		}
		if p := pv6 + 1; p < pu6 {
			if cnd := candB[bu+6]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+6))
				}
				candB[bu+6] = p
			}
		}
		if p := pv7 + 1; p < pu7 {
			if cnd := candB[bu+7]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+7))
				}
				candB[bu+7] = p
			}
		}
		if directed {
			continue
		}
		if p := pu0 + 1; p < pv0 {
			if cnd := candB[bv]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv))
				}
				candB[bv] = p
			}
		}
		if p := pu1 + 1; p < pv1 {
			if cnd := candB[bv+1]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+1))
				}
				candB[bv+1] = p
			}
		}
		if p := pu2 + 1; p < pv2 {
			if cnd := candB[bv+2]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+2))
				}
				candB[bv+2] = p
			}
		}
		if p := pu3 + 1; p < pv3 {
			if cnd := candB[bv+3]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+3))
				}
				candB[bv+3] = p
			}
		}
		if p := pu4 + 1; p < pv4 {
			if cnd := candB[bv+4]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+4))
				}
				candB[bv+4] = p
			}
		}
		if p := pu5 + 1; p < pv5 {
			if cnd := candB[bv+5]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+5))
				}
				candB[bv+5] = p
			}
		}
		if p := pu6 + 1; p < pv6 {
			if cnd := candB[bv+6]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+6))
				}
				candB[bv+6] = p
			}
		}
		if p := pu7 + 1; p < pv7 {
			if cnd := candB[bv+7]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+7))
				}
				candB[bv+7] = p
			}
		}
	}
	return touched
}

// relaxLanes dispatches one layer's relax pass to the kernel compiled
// for the state's width. The dispatch happens once per layer, not per
// edge, so the kernel bodies stay straight-line.
func (st *sweepState) relaxLanes(edges []int32, directed bool, touched []int32) []int32 {
	if st.width == 8 {
		return relaxLanes8(st.nodeB, st.candB, edges, directed, touched)
	}
	return relaxLanes4(st.nodeB, st.candB, edges, directed, touched)
}
