package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func mustSample(t *testing.T, values []float64) *Sample {
	t.Helper()
	s, err := NewSample(values)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSampleErrors(t *testing.T) {
	if _, err := NewSample(nil); err == nil {
		t.Fatal("empty sample should error")
	}
	if _, err := NewSample([]float64{0.5, math.NaN()}); err == nil {
		t.Fatal("NaN should error")
	}
	if _, err := NewSample([]float64{math.Inf(1)}); err == nil {
		t.Fatal("Inf should error")
	}
}

// TestNewSampleFoldsNegativeZero pins -0 and +0 as one value: counted
// apart, the cumulative counts would exceed N.
func TestNewSampleFoldsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	s := mustSample(t, []float64{0, negZero, negZero, 0.5})
	if got := s.Values(); len(got) != 2 || math.Float64bits(got[0]) != 0 || got[1] != 0.5 {
		t.Fatalf("values = %v, want [0 0.5] with +0", got)
	}
	if len(s.cum) != 2 || s.cum[0] != 3 || s.cum[1] != 4 {
		t.Fatalf("cum = %v, want [3 4]", s.cum)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d, want 4", s.N())
	}
}

// referenceSample is the naive construction NewSampleFromChunks must
// reproduce bit for bit: concatenate, sort the raw multiset, run-length
// count, and accumulate the sum over the distinct values in ascending
// order.
func referenceSample(chunks [][]float64) (values []float64, cum []int64, n int, mean float64) {
	var raw []float64
	for _, ch := range chunks {
		raw = append(raw, ch...)
	}
	sort.Float64s(raw)
	var sum float64
	for i := 0; i < len(raw); {
		j := i
		for j < len(raw) && raw[j] == raw[i] {
			j++
		}
		v := raw[i]
		if v == 0 {
			v = 0 // fold -0
		}
		values = append(values, v)
		cum = append(cum, int64(j))
		sum += v * float64(j-i)
		i = j
	}
	return values, cum, len(raw), sum / float64(len(raw))
}

// splitChunks cuts values into uneven chunks, the way the engine's
// workers hand them over.
func splitChunks(rng *rand.Rand, values []float64, parts int) [][]float64 {
	var chunks [][]float64
	for len(values) > 0 && parts > 1 {
		k := rng.Intn(2*len(values)/parts + 1)
		chunks = append(chunks, values[:k])
		values = values[k:]
		parts--
	}
	return append(chunks, values)
}

func TestNewSampleFromChunksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// High-distinct: 120k values, 100k of them distinct, like a fine
	// period; the table grows from 1,024 slots several times over.
	high := make([]float64, 0, 120_000)
	for i := 0; i < 100_000; i++ {
		high = append(high, rng.Float64())
	}
	for i := 0; i < 20_000; i++ {
		high = append(high, high[rng.Intn(100_000)])
	}
	rng.Shuffle(len(high), func(i, j int) { high[i], high[j] = high[j], high[i] })
	// Low-distinct: hops/duration ratios with small denominators.
	low := make([]float64, 200_000)
	for i := range low {
		d := 1 + rng.Intn(40)
		low[i] = float64(rng.Intn(d+1)) / float64(d)
	}
	// Mixed signs and magnitudes, both zeros, subnormals.
	mixed := []float64{0, math.Copysign(0, -1), -1, 1, -0.5, 0.5, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 1e300, -1e300, 1e-300, -1e-300}
	for i := 0; i < 5_000; i++ {
		mixed = append(mixed, mixed[rng.Intn(12)], rng.NormFloat64()*1e3)
	}

	for _, tc := range []struct {
		name   string
		values []float64
		parts  int
	}{
		{"high-distinct", high, 7},
		{"low-distinct", low, 5},
		{"mixed-signs", mixed, 3},
		{"single", []float64{0.25}, 1},
	} {
		chunks := splitChunks(rng, tc.values, tc.parts)
		s, err := NewSampleFromChunks(len(tc.values), chunks)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		values, cum, n, mean := referenceSample(chunks)
		if tc.name == "high-distinct" && 5*len(values) < 4*n {
			t.Fatalf("high-distinct input has only %d distinct of %d values", len(values), n)
		}
		if got := s.Values(); len(got) != len(values) {
			t.Fatalf("%s: %d distinct values, reference %d", tc.name, len(got), len(values))
		}
		for i, v := range values {
			if math.Float64bits(s.values[i]) != math.Float64bits(v) || s.cum[i] != cum[i] {
				t.Fatalf("%s: entry %d = (%v, %d), reference (%v, %d)", tc.name, i, s.values[i], s.cum[i], v, cum[i])
			}
		}
		if s.N() != n {
			t.Fatalf("%s: N = %d, reference %d", tc.name, s.N(), n)
		}
		if math.Float64bits(s.Mean()) != math.Float64bits(mean) {
			t.Fatalf("%s: mean = %v, reference %v", tc.name, s.Mean(), mean)
		}
	}

	// A non-finite value in a later chunk is still rejected.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		chunks := [][]float64{high[:1000], {0.5, bad, 0.25}}
		if _, err := NewSampleFromChunks(1003, chunks); err == nil {
			t.Fatalf("%v in a later chunk was accepted", bad)
		}
	}
}

// sampleSink keeps benchmarked samples alive.
var sampleSink *Sample

// BenchmarkNewSampleFromChunks times exact-sample construction on the
// two population shapes of an occupancy scale search: a fine period
// (≈207k values, 174k distinct) and a coarse one (≈538k values, 24k
// distinct), each in the engine's 64Ki-value chunks.
func BenchmarkNewSampleFromChunks(b *testing.B) {
	for _, shape := range []struct {
		name            string
		total, distinct int
	}{
		{"fine", 207_119, 174_145},
		{"coarse", 538_000, 24_000},
	} {
		rng := rand.New(rand.NewSource(1))
		support := make([]float64, shape.distinct)
		for i := range support {
			support[i] = rng.Float64()
		}
		values := append([]float64(nil), support...)
		for len(values) < shape.total {
			values = append(values, support[rng.Intn(len(support))])
		}
		rng.Shuffle(len(values), func(i, j int) { values[i], values[j] = values[j], values[i] })
		var chunks [][]float64
		for rest := values; len(rest) > 0; {
			k := min(len(rest), 1<<16)
			chunks = append(chunks, rest[:k])
			rest = rest[k:]
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewSampleFromChunks(len(values), chunks)
				if err != nil {
					b.Fatal(err)
				}
				sampleSink = s
			}
		})
	}
}

func TestSampleWeightedBasics(t *testing.T) {
	// 4x 0.25, 2x 0.5, 1x 1.0 — stored as 3 distinct values.
	s := mustSample(t, []float64{0.25, 0.5, 0.25, 1, 0.25, 0.5, 0.25})
	if s.N() != 7 {
		t.Fatalf("N = %d, want 7", s.N())
	}
	if got := s.Values(); len(got) != 3 || got[0] != 0.25 || got[1] != 0.5 || got[2] != 1 {
		t.Fatalf("distinct values = %v", got)
	}
	want := (4*0.25 + 2*0.5 + 1) / 7
	if math.Abs(s.Mean()-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", s.Mean(), want)
	}
	if got := s.CDF(0.25); math.Abs(got-4.0/7) > 1e-12 {
		t.Fatalf("CDF(0.25) = %v, want 4/7", got)
	}
	if got := s.CDF(0.2); got != 0 {
		t.Fatalf("CDF(0.2) = %v, want 0", got)
	}
	if got := s.ICD(0.5); math.Abs(got-1.0/7) > 1e-12 {
		t.Fatalf("ICD(0.5) = %v, want 1/7", got)
	}
	if got := s.ICD(1); got != 0 {
		t.Fatalf("ICD(1) = %v, want 0", got)
	}
}

// TestSampleMatchesNaiveStats cross-checks the weighted implementation
// against direct computation on the raw multiset.
func TestSampleMatchesNaiveStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 5000)
	// Mix of repeated rational values (like occupancies) and noise.
	for i := range values {
		if i%3 == 0 {
			values[i] = rng.Float64()
		} else {
			values[i] = float64(1+rng.Intn(9)) / float64(10+rng.Intn(10))
		}
	}
	s := mustSample(t, append([]float64(nil), values...))

	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(len(values))
	if math.Abs(s.Mean()-mean) > 1e-9 {
		t.Fatalf("mean = %v, naive %v", s.Mean(), mean)
	}
	var varAcc float64
	for _, v := range values {
		varAcc += (v - mean) * (v - mean)
	}
	std := math.Sqrt(varAcc / float64(len(values)))
	if math.Abs(s.Std()-std) > 1e-9 {
		t.Fatalf("std = %v, naive %v", s.Std(), std)
	}
	// CDF at a few points vs counting.
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, x := range []float64{0.1, 0.33, 0.5, 0.77, 0.999} {
		cnt := 0
		for _, v := range sorted {
			if v <= x {
				cnt++
			}
		}
		if got, want := s.CDF(x), float64(cnt)/float64(len(values)); math.Abs(got-want) > 1e-12 {
			t.Fatalf("CDF(%v) = %v, naive %v", x, got, want)
		}
	}
	// MKDistance vs direct Riemann integration of |F(x)-x|.
	integ := 0.0
	const steps = 200000
	for i := 0; i < steps; i++ {
		x := (float64(i) + 0.5) / steps
		j := sort.SearchFloat64s(sorted, x)
		for j < len(sorted) && sorted[j] == x {
			j++
		}
		integ += math.Abs(float64(j)/float64(len(sorted))-x) / steps
	}
	if math.Abs(s.MKDistance()-integ) > 1e-4 {
		t.Fatalf("MKDistance = %v, numeric %v", s.MKDistance(), integ)
	}
}

func TestMKDistanceLimits(t *testing.T) {
	// Point mass at 0 and at 1: maximal distance 1/2, proximity 0.
	for _, v := range []float64{0, 1} {
		s := mustSample(t, []float64{v, v, v})
		if math.Abs(s.MKDistance()-0.5) > 1e-12 {
			t.Fatalf("point mass at %v: MK = %v, want 0.5", v, s.MKDistance())
		}
		if math.Abs(s.MKProximity()) > 1e-12 {
			t.Fatalf("point mass at %v: proximity = %v, want 0", v, s.MKProximity())
		}
	}
	// A fine uniform grid approaches distance 0 / proximity 1.
	grid := make([]float64, 1000)
	for i := range grid {
		grid[i] = (float64(i) + 0.5) / 1000
	}
	s := mustSample(t, grid)
	if s.MKDistance() > 1e-3 {
		t.Fatalf("uniform grid: MK = %v, want ~0", s.MKDistance())
	}
	if s.MKProximity() < 0.99 {
		t.Fatalf("uniform grid: proximity = %v, want ~1", s.MKProximity())
	}
}

func TestHistogramMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	values := make([]float64, 20000)
	for i := range values {
		values[i] = math.Pow(rng.Float64(), 2) // skewed towards 0
	}
	s := mustSample(t, append([]float64(nil), values...))
	h := NewHistogram(4096)
	h.AddAll(values)
	if h.N() != int64(len(values)) {
		t.Fatalf("histogram N = %d", h.N())
	}
	if d := math.Abs(h.MKProximity() - s.MKProximity()); d > 4.0/4096*2 {
		t.Fatalf("histogram proximity off by %v", d)
	}
}

func TestCREUniformQuarter(t *testing.T) {
	grid := make([]float64, 2000)
	for i := range grid {
		grid[i] = (float64(i) + 0.5) / 2000
	}
	s := mustSample(t, grid)
	if got := (CRESelector{}).Score(s); math.Abs(got-0.25) > 1e-2 {
		t.Fatalf("CRE of uniform = %v, want ~1/4", got)
	}
	point := mustSample(t, []float64{1, 1, 1})
	if got := (CRESelector{}).Score(point); got > 1e-12 {
		t.Fatalf("CRE of point mass at 1 = %v, want 0", got)
	}
}

func TestSelectorsOrderAndNames(t *testing.T) {
	sels := AllSelectors()
	if len(sels) != 5 {
		t.Fatalf("AllSelectors = %d, want 5", len(sels))
	}
	if sels[0].Name() != "mk-proximity" {
		t.Fatalf("primary selector = %q", sels[0].Name())
	}
	if sels[2].Name() != "variation-coefficient" {
		t.Fatalf("selector 2 = %q, the figure harness expects the variation coefficient there", sels[2].Name())
	}
	seen := map[string]bool{}
	s := mustSample(t, []float64{0.2, 0.4, 0.4, 0.9})
	for _, sel := range sels {
		if seen[sel.Name()] {
			t.Fatalf("duplicate selector name %q", sel.Name())
		}
		seen[sel.Name()] = true
		if v := sel.Score(s); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s score = %v", sel.Name(), v)
		}
	}
}

func TestSelectorsPreferUniformOverContracted(t *testing.T) {
	uniform := make([]float64, 500)
	for i := range uniform {
		uniform[i] = (float64(i) + 0.5) / 500
	}
	u := mustSample(t, uniform)
	contracted := mustSample(t, []float64{1, 1, 1, 1, 1})
	for _, sel := range AllSelectors() {
		if sel.Score(u) <= sel.Score(contracted) {
			t.Fatalf("%s: uniform %v <= contracted %v", sel.Name(), sel.Score(u), sel.Score(contracted))
		}
	}
}
