package validate

// spanArena is the out-of-core successor of the flat pairIndex arena
// for the elongation observer: the raw stream's minimal-trip spans are
// kept delta-encoded in destination-major regions (uvarint source
// deltas, svarint departures, delta-encoded within each pair) instead
// of 16 B tripSpan structs, and an optional size-capped disk-spill
// shelf moves finished regions to an unlinked temp file when the
// resident encoding outgrows the cap — Section 8 validation then runs
// on streams whose span population exceeds RAM, with spilled regions
// re-read sequentially (one ReadAt per destination) during scoring.
//
// Layout: regions are appended in strictly increasing destination
// order as the engine delivers trip runs, so destOff (one int64 per
// destination, n+1 entries) is the only random-access structure —
// 8 B/node regardless of the pair population, where the flat arena's
// offset table needed n² entries. A region holds, per source with at
// least one span, in ascending source order:
//
//	uvarint(source - prevSource)   prevSource starts at -1
//	uvarint(spanCount)
//	svarint(dep)    svarint(arr-dep)      first span
//	uvarint(Δdep)   svarint(arr-dep)      remaining spans, dep ascending
//
// Resident regions live in chunks that are allocated as the arena
// grows and never copied (a region is encoded into scratch first, and
// a region that does not fit the current chunk opens the next one), so
// building the arena allocates about its final size once. The spill
// shelf only ever flushes every resident chunk, so a region never
// straddles the RAM/file boundary either: readRegion is either a
// sub-slice of one chunk or one contiguous ReadAt. A flush keeps the
// emptied chunks for the regions that follow.
//
// Scoring looks spans up without searching. Decoding a region also
// fills a dense slot table (slot[u] = 1 + u's index among the region's
// sources) and starts one cursor per source at the end of its spans.
// The engine hands each destination's G∆ trips departure-descending per
// source, and a pair's minimal trips are Pareto, so both bounds of the
// query window [a, b] only move left: each query steps its source's
// cursor a few spans, O(1) amortised, then scans the ~2 spans that end
// by b. The cursor also steps right, so a query out of that order costs
// time but returns the same integer.

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"repro/internal/temporal"
)

type spanArena struct {
	n         int32
	destOff   []int64 // global byte offset of each destination's region
	destChunk []int32 // chunk holding each resident destination's region
	chunks    [][]byte
	chunkOff  []int64 // global offset of each chunk's first byte
	used      int     // chunks holding regions; the rest are emptied spares
	resident  int64   // bytes in the used chunks
	spilled   int64   // bytes on the spill shelf == global offset of the resident bytes
	spillCap  int64   // resident-byte cap; <= 0 keeps everything in RAM
	spill     *os.File
	nextDest  int32

	// build scratch, reused across runs
	cnt     []int32
	pos     []int32
	srcs    []int32
	scratch []tripSpan
	enc     []byte
}

// Chunk sizes: a new chunk is as large as the resident arena so far,
// within these bounds, or the region if that is larger — small arenas
// stay small, large ones use few chunks, and the unused tail of each
// chunk is smaller than the region that did not fit.
const (
	minSpanChunk = 64 << 10
	maxSpanChunk = 1 << 20
)

func newSpanArena(n int, spillCap int64) *spanArena {
	return &spanArena{
		n:         int32(n),
		destOff:   make([]int64, n+1),
		destChunk: make([]int32, n),
		spillCap:  spillCap,
		cnt:       make([]int32, n),
		pos:       make([]int32, n),
	}
}

// addRun encodes one destination's minimal trips. Runs must arrive
// with strictly increasing dest; every trip's V equals dest — the
// contract of the engine's streaming trip pipeline.
func (a *spanArena) addRun(dest int32, run []temporal.Trip) error {
	cur := a.spilled + a.resident
	for d := a.nextDest; d <= dest; d++ {
		a.destOff[d] = cur
	}
	a.nextDest = dest + 1

	if len(run) > 0 {
		a.enc = a.enc[:0]
		// Group the run's spans by source with the same counting
		// back-fill the flat arena uses: per pair, departures arrive
		// strictly decreasing, so filling each source's range back to
		// front lands dep-ascending without a sort (guarded below).
		a.srcs = a.srcs[:0]
		for _, tr := range run {
			if a.cnt[tr.U] == 0 {
				a.srcs = append(a.srcs, tr.U)
			}
			a.cnt[tr.U]++
		}
		sort.Slice(a.srcs, func(i, j int) bool { return a.srcs[i] < a.srcs[j] })
		if cap(a.scratch) < len(run) {
			a.scratch = make([]tripSpan, len(run))
		}
		a.scratch = a.scratch[:len(run)]
		off := int32(0)
		for _, u := range a.srcs {
			a.pos[u] = off
			off += a.cnt[u]
		}
		for _, tr := range run {
			a.cnt[tr.U]--
			a.scratch[a.pos[tr.U]+a.cnt[tr.U]] = tripSpan{dep: tr.Dep, arr: tr.Arr}
		}
		var vbuf [binary.MaxVarintLen64]byte
		prevU := int32(-1)
		for i, u := range a.srcs {
			// The back-fill zeroed cnt; each source's count is implicit
			// in the pos spacing (pos was assigned cumulatively in
			// ascending source order).
			end := int32(len(run))
			if i+1 < len(a.srcs) {
				end = a.pos[a.srcs[i+1]]
			}
			sp := a.scratch[a.pos[u]:end]
			for i := 1; i < len(sp); i++ {
				if sp[i].dep < sp[i-1].dep {
					sort.Slice(sp, func(x, y int) bool { return sp[x].dep < sp[y].dep })
					break
				}
			}
			n := binary.PutUvarint(vbuf[:], uint64(u-prevU))
			a.enc = append(a.enc, vbuf[:n]...)
			prevU = u
			n = binary.PutUvarint(vbuf[:], uint64(len(sp)))
			a.enc = append(a.enc, vbuf[:n]...)
			prevDep := int64(0)
			for i, s := range sp {
				if i == 0 {
					n = binary.PutVarint(vbuf[:], s.dep)
				} else {
					n = binary.PutUvarint(vbuf[:], uint64(s.dep-prevDep))
				}
				a.enc = append(a.enc, vbuf[:n]...)
				prevDep = s.dep
				n = binary.PutVarint(vbuf[:], s.arr-s.dep)
				a.enc = append(a.enc, vbuf[:n]...)
			}
		}
		a.destChunk[dest] = a.place(a.enc)
	}
	a.destOff[dest+1] = a.spilled + a.resident

	if a.spillCap > 0 && a.resident >= a.spillCap {
		return a.flush()
	}
	return nil
}

// place appends one encoded region to the resident chunks and returns
// the index of the chunk holding it: the last used chunk if the region
// fits, else the next spare if it is large enough, else a new chunk.
func (a *spanArena) place(enc []byte) int32 {
	i := a.used - 1
	if i < 0 || cap(a.chunks[i])-len(a.chunks[i]) < len(enc) {
		i = a.used
		if i == len(a.chunks) {
			a.chunks = append(a.chunks, nil)
			a.chunkOff = append(a.chunkOff, 0)
		}
		if cap(a.chunks[i]) < len(enc) {
			a.chunks[i] = make([]byte, 0, max(len(enc), min(maxSpanChunk, max(minSpanChunk, int(a.resident)))))
		}
		a.chunkOff[i] = a.spilled + a.resident
		a.used++
	}
	a.chunks[i] = append(a.chunks[i], enc...)
	a.resident += int64(len(enc))
	return int32(i)
}

// flush moves every resident chunk to the spill shelf. Flushing
// everything (never a prefix) keeps regions from straddling the
// RAM/file boundary.
func (a *spanArena) flush() error {
	if a.resident == 0 {
		return nil
	}
	if a.spill == nil {
		f, err := os.CreateTemp("", "repro-pairspans-*")
		if err != nil {
			return fmt.Errorf("validate: pair-span spill: %w", err)
		}
		// Unlink immediately: the file lives until the descriptor
		// closes, and a crash can never leave it behind. Best-effort —
		// platforms that cannot remove an open file keep the name until
		// Close.
		os.Remove(f.Name())
		a.spill = f
	}
	for i, c := range a.chunks[:a.used] {
		if _, err := a.spill.WriteAt(c, a.chunkOff[i]); err != nil {
			return fmt.Errorf("validate: pair-span spill: %w", err)
		}
	}
	for i := range a.chunks[:a.used] {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.used = 0
	a.spilled += a.resident
	a.resident = 0
	return nil
}

// finish seals the arena: destinations that never produced a run get
// empty regions.
func (a *spanArena) finish() {
	total := a.spilled + a.resident
	for d := a.nextDest; d <= a.n; d++ {
		a.destOff[d] = total
	}
	a.nextDest = a.n + 1
}

// release closes the spill shelf. The arena keeps its resident
// chunks, so accounting fields stay readable; decoding spilled regions
// after release fails.
func (a *spanArena) release() {
	if a.spill != nil {
		a.spill.Close()
		a.spill = nil
	}
}

// readRegion returns destination d's encoded region, either as a
// sub-slice of its resident chunk or read from the spill shelf into
// (a reuse of) tmp.
func (a *spanArena) readRegion(d int32, tmp []byte) ([]byte, []byte, error) {
	start, end := a.destOff[d], a.destOff[d+1]
	if start == end {
		return nil, tmp, nil
	}
	if start >= a.spilled {
		i := a.destChunk[d]
		off := start - a.chunkOff[i]
		return a.chunks[i][off : off+end-start], tmp, nil
	}
	need := int(end - start)
	if cap(tmp) < need {
		tmp = make([]byte, need)
	}
	tmp = tmp[:need]
	if a.spill == nil {
		return nil, tmp, fmt.Errorf("validate: pair-span arena: destination %d is spilled but the shelf is closed", d)
	}
	if _, err := a.spill.ReadAt(tmp, start); err != nil {
		return nil, tmp, fmt.Errorf("validate: pair-span spill read: %w", err)
	}
	return tmp, tmp, nil
}

// destSpans is one destination's decoded region: the sources with at
// least one span (ascending), a prefix-offset table into the decoded
// spans, and the spans themselves (dep-ascending per source — the
// exact integers the flat pairIndex would hold for pair (src, dest)).
// slot and cur are the lookup state of minDuration: slot is indexed by
// node id and holds 1 + the source's index in srcs (0: no spans), cur
// holds each source's cursor into spans. One destSpans serves one
// worker at a time; it is pooled with its tables across decodes.
type destSpans struct {
	srcs  []int32
	offs  []int32
	spans []tripSpan
	slot  []int32
	cur   []int32
	raw   []byte // spill read buffer, reused across decodes
}

// decodeDest decodes destination d's region into ds. Safe to call
// concurrently for different ds (the arena is immutable after finish;
// the spill shelf is read with ReadAt).
func (a *spanArena) decodeDest(d int32, ds *destSpans) error {
	// Clear the slots the previous decode set before anything here can
	// fail: srcs lists every slot it touched, even if it failed
	// half-way, so no decode ever sees a stale slot.
	if len(ds.slot) < int(a.n) {
		ds.slot = make([]int32, a.n)
	} else {
		for _, u := range ds.srcs {
			ds.slot[u] = 0
		}
	}
	ds.srcs = ds.srcs[:0]
	ds.offs = ds.offs[:0]
	ds.spans = ds.spans[:0]
	ds.cur = ds.cur[:0]
	region, raw, err := a.readRegion(d, ds.raw)
	ds.raw = raw
	if err != nil {
		return err
	}
	u := int32(-1)
	for len(region) > 0 {
		du, n := binary.Uvarint(region)
		if n <= 0 || du == 0 || du > uint64(a.n-1-u) {
			return fmt.Errorf("validate: pair-span arena: destination %d: corrupt source delta", d)
		}
		region = region[n:]
		u += int32(du)
		c, n := binary.Uvarint(region)
		if n <= 0 {
			return fmt.Errorf("validate: pair-span arena: destination %d: corrupt span count", d)
		}
		region = region[n:]
		ds.srcs = append(ds.srcs, u)
		ds.slot[u] = int32(len(ds.srcs))
		ds.offs = append(ds.offs, int32(len(ds.spans)))
		prevDep := int64(0)
		for i := uint64(0); i < c; i++ {
			var dep int64
			if i == 0 {
				v, n := binary.Varint(region)
				if n <= 0 {
					return fmt.Errorf("validate: pair-span arena: destination %d: corrupt departure", d)
				}
				region = region[n:]
				dep = v
			} else {
				v, n := binary.Uvarint(region)
				if n <= 0 {
					return fmt.Errorf("validate: pair-span arena: destination %d: corrupt departure delta", d)
				}
				region = region[n:]
				dep = prevDep + int64(v)
			}
			dur, n := binary.Varint(region)
			if n <= 0 {
				return fmt.Errorf("validate: pair-span arena: destination %d: corrupt duration", d)
			}
			region = region[n:]
			ds.spans = append(ds.spans, tripSpan{dep: dep, arr: dep + dur})
			prevDep = dep
		}
		ds.cur = append(ds.cur, int32(len(ds.spans)))
	}
	ds.offs = append(ds.offs, int32(len(ds.spans)))
	return nil
}

// minDuration returns minDurationIn(spans of source u, a, b) without a
// search: the slot table finds u's spans and u's cursor is moved to
// the first span departing at or after a — left while the span before
// it still departs at or after a, right while it departs before a.
// Queries whose a does not rise per source (the engine's lane order)
// cost O(1) amortised plus the scan; any other order only costs more
// steps. The scan is minDurationIn's.
func (ds *destSpans) minDuration(u int32, a, b int64) (int64, bool) {
	if uint(u) >= uint(len(ds.slot)) || ds.slot[u] == 0 {
		return -1, false
	}
	i := ds.slot[u] - 1
	lo, hi := ds.offs[i], ds.offs[i+1]
	c := ds.cur[i]
	for c > lo && ds.spans[c-1].dep >= a {
		c--
	}
	for c < hi && ds.spans[c].dep < a {
		c++
	}
	ds.cur[i] = c
	best := int64(-1)
	for ; c < hi && ds.spans[c].arr <= b; c++ {
		d := ds.spans[c].arr - ds.spans[c].dep
		if best < 0 || d < best {
			best = d
		}
	}
	return best, best >= 0
}

// minDurationIn is the span-window query of the flat pair index and of
// the eager references, and the oracle destSpans.minDuration is tested
// against: identical integer spans in, identical result out — this is
// what pins the spill path bit-exact.
func minDurationIn(sp []tripSpan, a, b int64) (int64, bool) {
	lo, hi := 0, len(sp)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sp[mid].dep < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best := int64(-1)
	for i := lo; i < len(sp) && sp[i].arr <= b; i++ {
		d := sp[i].arr - sp[i].dep
		if best < 0 || d < best {
			best = d
		}
	}
	return best, best >= 0
}
