package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/datasets"
	"repro/internal/linkstream"
)

// standIn returns the first days days of an internal/datasets stand-in
// (generated by internal/synth with the stand-in's shape and its own
// fixed seed), with the node numbering permuted and the event order
// shuffled by seed. Each seed thus gives different files and bytes and
// a different engine node order, while the network itself — and so
// the work per job — stays the same across seeds: a stream generated
// from the seed instead moved job times by 15–20% from seed to seed
// at these sizes on a two-core VM, more than any bound the benchmark
// could hold.
func standIn(ds *datasets.Dataset, days int, seed int64) (*linkstream.Stream, error) {
	base, err := ds.Stream()
	if err != nil {
		return nil, err
	}
	t0, _, _ := base.Span()
	src := base.SliceTime(t0, t0+int64(days)*linkstream.Day)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(src.NumNodes())
	events := append([]linkstream.Event(nil), src.Events()...)
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	s := linkstream.New()
	s.EnsureNodes(src.NumNodes())
	for _, e := range events {
		if err := s.AddID(int32(perm[e.U]), int32(perm[e.V]), e.T); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// textBytes renders s as the text edge list tsscale -in reads, in the
// stream's current (unsorted) event order.
func textBytes(s *linkstream.Stream) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("writing text stream: %w", err)
	}
	return buf.Bytes(), nil
}

// writeColumnar converts s the way tsconvert does — sort, then LSC with
// the default skip index — and returns the file size.
func writeColumnar(s *linkstream.Stream, path string) (int64, error) {
	s.Sort()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	werr := s.WriteColumnar(f, linkstream.ColumnarOptions{})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return 0, fmt.Errorf("writing %s: %w", path, werr)
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
