// Package dist implements the distribution machinery of the occupancy
// method: empirical samples of occupancy rates on [0,1], the exact
// Monge-Kantorovich (Wasserstein-1) distance to the uniform density, a
// fixed-bin streaming histogram approximation for very large trip
// populations, and the five uniformity selectors compared in Section 7
// of the paper (M-K proximity, standard deviation, variation
// coefficient, Shannon entropy and cumulative residual entropy).
package dist

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrEmptySample is returned by NewSample for an empty value slice.
var ErrEmptySample = errors.New("dist: empty sample")

// Sample is an empirical distribution of occupancy rates, stored as
// sorted distinct values with multiplicities. Occupancy populations are
// large and, at fine periods, mostly distinct: on an Irvine-shaped
// trace one scale search counts 8.1M occupancies over 50 periods, 1.28M
// of them distinct, and the finest period alone has 174,145 distinct
// values among 207,119. Coarse periods repeat values more (538k values,
// 24k distinct, on a dense manufacturing-shaped trace). Counting the
// multiset first and sorting only the distinct values serves both
// shapes. All scoring methods assume the support is [0,1], which holds
// for occupancy rates by Definition 7.
type Sample struct {
	values []float64 // sorted distinct values
	cum    []int64   // cum[i] = number of sample points <= values[i]
	n      int64
	sum    float64
}

// NewSample builds the distribution of values. The multiset is counted
// through a hash on the float bits and only the distinct values are
// sorted; the input slice is not retained. An empty or non-finite
// sample is rejected.
func NewSample(values []float64) (*Sample, error) {
	if len(values) == 0 {
		return nil, ErrEmptySample
	}
	return NewSampleFromChunks(len(values), [][]float64{values})
}

// NewSampleFromChunks builds the distribution of a multiset given as a
// list of value chunks with total values overall, counting each chunk
// in place — the streaming entry point of the sweep pipeline, which
// hands over its workers' occupancy chunks without ever concatenating
// them. The chunks are not retained. Negative zero counts as zero.
func NewSampleFromChunks(total int, chunks [][]float64) (*Sample, error) {
	if total == 0 {
		return nil, ErrEmptySample
	}
	c := newCounter()
	for _, values := range chunks {
		if err := c.addAll(values); err != nil {
			return nil, err
		}
	}
	// The distinct keys, compacted to the front of the table and
	// sorted once: key order is value order.
	live := c.slots[:0]
	for _, sl := range c.slots {
		if sl.key != 0 {
			live = append(live, sl)
		}
	}
	slices.SortFunc(live, func(a, b slot) int { return cmp.Compare(a.key, b.key) })
	s := &Sample{values: make([]float64, len(live)), cum: make([]int64, len(live)), n: int64(total)}
	var cum int64
	for i, sl := range live {
		v := keyValue(sl.key)
		cum += sl.cnt
		s.values[i] = v
		s.cum[i] = cum
		s.sum += v * float64(sl.cnt)
	}
	return s, nil
}

// orderedKey maps a finite float to a key whose unsigned order is the
// float order: negative values have every bit flipped, the others get
// the sign bit set. Negative zero is folded into zero first. No finite
// value maps to 0, which marks an empty counter slot.
func orderedKey(bits uint64) uint64 {
	if bits == signBit {
		bits = 0
	}
	if bits&signBit != 0 {
		return ^bits
	}
	return bits | signBit
}

// keyValue inverts orderedKey.
func keyValue(key uint64) float64 {
	if key&signBit != 0 {
		return math.Float64frombits(key &^ signBit)
	}
	return math.Float64frombits(^key)
}

const (
	signBit = 1 << 63
	// fibMul is 2^64 divided by the golden ratio: the top bits of
	// key*fibMul spread keys that differ only in their low bits.
	fibMul = 0x9E3779B97F4A7C15
)

// slot is one entry of the counting table: an ordered key (0 = empty)
// and its multiplicity, packed so a probe touches one cache line.
type slot struct {
	key uint64
	cnt int64
}

// counter is a linear-probing multiset counter over ordered keys,
// hashed by the top bits of a Fibonacci multiply. It starts at 1,024
// slots and doubles at 3/4 load, so its size follows the distinct count
// rather than the population: a coarse period's 24k distinct values
// fit 32,768 slots although the period has 538k values, and only a
// fine period grows it to 262,144 slots (174k distinct). Sizing from
// the population instead would reserve room for 538k keys.
type counter struct {
	slots []slot
	shift uint // 64 - log2(len(slots))
	used  int
}

func newCounter() *counter {
	const bits = 10
	return &counter{slots: make([]slot, 1<<bits), shift: 64 - bits}
}

// addAll counts every value of vs, rejecting non-finite ones.
func (c *counter) addAll(vs []float64) error {
	const expMask = 0x7FF0000000000000
	slots, shift := c.slots, c.shift
	mask := uint64(len(slots) - 1)
	limit := 3 * len(slots) / 4
	for _, v := range vs {
		bits := math.Float64bits(v)
		if bits&expMask == expMask { // NaN or Inf: exponent all ones
			return errors.New("dist: non-finite sample value")
		}
		key := orderedKey(bits)
		i := (key * fibMul) >> shift
		for {
			sl := &slots[i]
			if sl.key == key {
				sl.cnt++
				break
			}
			if sl.key == 0 {
				sl.key, sl.cnt = key, 1
				c.used++
				if c.used > limit {
					c.grow()
					slots, shift = c.slots, c.shift
					mask = uint64(len(slots) - 1)
					limit = 3 * len(slots) / 4
				}
				break
			}
			i = (i + 1) & mask
		}
	}
	return nil
}

// grow doubles the table and reinserts every occupied slot.
func (c *counter) grow() {
	old := c.slots
	c.slots = make([]slot, 2*len(old))
	c.shift--
	mask := uint64(len(c.slots) - 1)
	for _, sl := range old {
		if sl.key == 0 {
			continue
		}
		j := (sl.key * fibMul) >> c.shift
		for c.slots[j].key != 0 {
			j = (j + 1) & mask
		}
		c.slots[j] = sl
	}
}

// N returns the number of values in the sample (multiplicities
// included).
func (s *Sample) N() int { return int(s.n) }

// Values returns the sorted distinct values of the sample. The slice is
// owned by the sample and must not be modified; multiplicities are
// reflected by N, Mean and the scoring methods.
func (s *Sample) Values() []float64 { return s.values }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 { return s.sum / float64(s.n) }

// Std returns the (population) standard deviation of the sample.
func (s *Sample) Std() float64 {
	m := s.Mean()
	var acc float64
	prev := int64(0)
	for i, v := range s.values {
		d := v - m
		acc += d * d * float64(s.cum[i]-prev)
		prev = s.cum[i]
	}
	return math.Sqrt(acc / float64(s.n))
}

// count returns the multiplicity of the i-th distinct value.
func (s *Sample) count(i int) int64 {
	if i == 0 {
		return s.cum[0]
	}
	return s.cum[i] - s.cum[i-1]
}

// CDF returns the empirical cumulative distribution P(X <= x).
func (s *Sample) CDF(x float64) float64 {
	// First distinct value > x; everything before it is <= x.
	i := sort.Search(len(s.values), func(j int) bool { return s.values[j] > x })
	if i == 0 {
		return 0
	}
	return float64(s.cum[i-1]) / float64(s.n)
}

// ICD returns the inverse cumulative distribution P(X > x), the curve
// plotted in Figures 3 and 4.
func (s *Sample) ICD(x float64) float64 { return 1 - s.CDF(x) }

// MKDistance returns the exact Monge-Kantorovich (Wasserstein-1)
// distance between the empirical distribution and the uniform density
// on [0,1]: the integral over [0,1] of |F(x) - x| with F the empirical
// CDF, integrated piecewise between the distinct values. The result
// lies in [0, 1/2]; 0 is reached only by the uniform distribution
// itself.
func (s *Sample) MKDistance() float64 {
	n := float64(s.n)
	total := 0.0
	prev := 0.0 // left end of the current constant piece of F
	for i := 0; i <= len(s.values); i++ {
		level := 0.0
		if i > 0 {
			level = float64(s.cum[i-1]) / n
		}
		next := 1.0
		if i < len(s.values) {
			next = s.values[i]
			if next > 1 {
				next = 1
			}
		}
		if next > prev {
			total += stepAbsIntegral(level, prev, next)
			prev = next
		}
	}
	return total
}

// stepAbsIntegral integrates |f - x| for x in [a, b].
func stepAbsIntegral(f, a, b float64) float64 {
	switch {
	case f <= a: // |f - x| = x - f throughout
		return (a+b)/2*(b-a) - f*(b-a)
	case f >= b: // |f - x| = f - x throughout
		return f*(b-a) - (a+b)/2*(b-a)
	default: // crosses zero at x = f
		da, db := f-a, b-f
		return (da*da + db*db) / 2
	}
}

// MKProximity maps MKDistance into a proximity score on [0,1]: 1 for
// the uniform distribution, 0 for a point mass at 0 or 1 (the two
// distributions at maximal M-K distance 1/2 from uniform). This is the
// score the occupancy method maximises over candidate periods.
func (s *Sample) MKProximity() float64 { return 1 - 2*s.MKDistance() }

// Histogram is a fixed-bin streaming approximation of a Sample on
// [0,1], intended for trip populations too large to keep exactly. Bin i
// covers [i/bins, (i+1)/bins); values are clamped into [0,1].
type Histogram struct {
	counts []int64
	n      int64
}

// NewHistogram returns an empty histogram with the given number of
// bins (at least 1).
func NewHistogram(bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	return &Histogram{counts: make([]int64, bins)}
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	b := int(v * float64(len(h.counts)))
	if b < 0 {
		b = 0
	}
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
}

// AddAll records every value of vs.
func (h *Histogram) AddAll(vs []float64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// N returns the number of recorded values.
func (h *Histogram) N() int64 { return h.n }

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Merge adds every count of o into h. Both histograms must have the
// same number of bins. This is the concurrent-merge path of the sweep
// pipeline: workers bin occupancy chunks into a private histogram
// outside any lock and fold it into the shared per-period histogram
// with one O(bins) merge, so the hot binning loop never contends.
func (h *Histogram) Merge(o *Histogram) {
	if len(o.counts) != len(h.counts) {
		panic(fmt.Sprintf("dist: merging %d-bin histogram into %d bins", len(o.counts), len(h.counts)))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Reset zeroes the histogram for reuse.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n = 0
}

// MKProximity returns the histogram approximation of Sample.MKProximity,
// treating each bin's mass as concentrated at the bin centre. The error
// versus the exact sample is at most one bin width.
func (h *Histogram) MKProximity() float64 {
	if h.n == 0 {
		return 0
	}
	bins := float64(len(h.counts))
	n := float64(h.n)
	total := 0.0
	prev := 0.0
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		centre := (float64(i) + 0.5) / bins
		total += stepAbsIntegral(float64(cum)/n, prev, centre)
		cum += c
		prev = centre
	}
	total += stepAbsIntegral(1, prev, 1)
	return 1 - 2*total
}

// Selector scores how uniformly a sample spreads over [0,1]; the
// occupancy method picks the period maximising the score. Higher means
// closer to the stretched, information-preserving regime.
type Selector interface {
	Name() string
	Score(s *Sample) float64
}

// MKProximitySelector is the paper's primary selector (Section 4): the
// Monge-Kantorovich proximity with the uniform density.
type MKProximitySelector struct{}

// Name implements Selector.
func (MKProximitySelector) Name() string { return "mk-proximity" }

// Score implements Selector.
func (MKProximitySelector) Score(s *Sample) float64 { return s.MKProximity() }

// StdDevSelector scores with the standard deviation of the sample: a
// point mass (fully contracted distribution) scores 0, a spread-out
// distribution scores high.
type StdDevSelector struct{}

// Name implements Selector.
func (StdDevSelector) Name() string { return "standard-deviation" }

// Score implements Selector.
func (StdDevSelector) Score(s *Sample) float64 { return s.Std() }

// VariationCoefficientSelector scores with std/mean. Section 7 shows it
// is degenerate: occupancies at fine scales have a tiny mean, so the
// coefficient diverges towards the timestamp resolution.
type VariationCoefficientSelector struct{}

// Name implements Selector.
func (VariationCoefficientSelector) Name() string { return "variation-coefficient" }

// Score implements Selector.
func (VariationCoefficientSelector) Score(s *Sample) float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.Std() / m
}

// entropyBins is the binning used by the Shannon-entropy selector; the
// paper's comparison only needs a resolution much finer than the
// distribution features and much coarser than the trip count.
const entropyBins = 64

// EntropySelector scores with the Shannon entropy of a fixed-bin
// discretisation, normalised to [0,1] (1 = uniform over the bins).
type EntropySelector struct{}

// Name implements Selector.
func (EntropySelector) Name() string { return "shannon-entropy" }

// Score implements Selector.
func (EntropySelector) Score(s *Sample) float64 {
	counts := make([]int64, entropyBins)
	for i, v := range s.values {
		b := int(v * entropyBins)
		if b < 0 {
			b = 0
		}
		if b >= entropyBins {
			b = entropyBins - 1
		}
		counts[b] += s.count(i)
	}
	n := float64(s.n)
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	return h / math.Log(entropyBins)
}

// CRESelector scores with the cumulative residual entropy
// -∫ G(x) ln G(x) dx with G(x) = P(X > x), integrated exactly over the
// piecewise-constant G between the distinct values. The uniform
// distribution on [0,1] scores 1/4; contracted distributions score
// near 0.
type CRESelector struct{}

// Name implements Selector.
func (CRESelector) Name() string { return "cre" }

// Score implements Selector.
func (CRESelector) Score(s *Sample) float64 {
	n := float64(s.n)
	total := 0.0
	prev := 0.0
	for i := 0; i <= len(s.values); i++ {
		level := 0.0
		if i > 0 {
			level = float64(s.cum[i-1]) / n
		}
		next := 1.0
		if i < len(s.values) {
			next = s.values[i]
			if next > 1 {
				next = 1
			}
		}
		if next > prev {
			g := 1 - level
			if g > 0 {
				total -= g * math.Log(g) * (next - prev)
			}
			prev = next
		}
	}
	return total
}

// AllSelectors returns the five Section 7 uniformity measures, primary
// selector first. Index 2 is the degenerate variation coefficient, the
// position the figure harness expects.
func AllSelectors() []Selector {
	return []Selector{
		MKProximitySelector{},
		StdDevSelector{},
		VariationCoefficientSelector{},
		EntropySelector{},
		CRESelector{},
	}
}
