package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalSampleMoments(t *testing.T) {
	r := NewRNG(1)
	d := Normal{Mean: 10, StdDev: 2}
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("stddev = %v, want ~2", sd)
	}
}

func TestNormalSampleNonNegInt(t *testing.T) {
	r := NewRNG(2)
	d := Normal{Mean: 1, StdDev: 5} // frequently negative before clamping
	for i := 0; i < 10000; i++ {
		if v := d.SampleNonNegInt(r, 0); v < 0 {
			t.Fatalf("SampleNonNegInt = %d, want >= 0", v)
		}
	}
	// Clamp floor is honored.
	for i := 0; i < 1000; i++ {
		if v := d.SampleNonNegInt(r, 3); v < 3 {
			t.Fatalf("SampleNonNegInt(min=3) = %d", v)
		}
	}
}

func TestBoundedParetoRange(t *testing.T) {
	r := NewRNG(3)
	d := BoundedPareto{Alpha: 1.2, L: 1, H: 1000}
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < d.L || v > d.H {
			t.Fatalf("Sample() = %v outside [%v, %v]", v, d.L, d.H)
		}
	}
}

func TestBoundedParetoMeanMatchesSamples(t *testing.T) {
	for _, d := range []BoundedPareto{
		{Alpha: 1.2, L: 1, H: 1000},
		{Alpha: 0.8, L: 2, H: 500},
		{Alpha: 2.0, L: 1, H: 100},
	} {
		r := NewRNG(4)
		const n = 400000
		var sum float64
		for i := 0; i < n; i++ {
			sum += d.Sample(r)
		}
		got := sum / n
		want := d.Mean()
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("alpha=%v: sample mean %v, analytic mean %v", d.Alpha, got, want)
		}
	}
}

func TestBoundedParetoMeanAlphaOne(t *testing.T) {
	d := BoundedPareto{Alpha: 1, L: 1, H: math.E}
	// E[X] = L·H/(H-L)·ln(H/L) = e/(e-1).
	want := math.E / (math.E - 1)
	if got := d.Mean(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Mean() = %v, want %v", got, want)
	}
}

func TestZipfProbabilitiesSumToOne(t *testing.T) {
	for _, n := range []int{1, 10, 1000} {
		z := NewZipf(n, 1.0)
		var sum float64
		for k := 0; k < n; k++ {
			sum += z.P(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d: probabilities sum to %v", n, sum)
		}
	}
}

func TestZipfMonotone(t *testing.T) {
	z := NewZipf(100, 0.8)
	for k := 1; k < z.N(); k++ {
		if z.P(k) > z.P(k-1) {
			t.Fatalf("P(%d)=%v > P(%d)=%v; Zipf must be non-increasing", k, z.P(k), k-1, z.P(k-1))
		}
	}
}

func TestZipfSampleMatchesPMF(t *testing.T) {
	z := NewZipf(20, 1.0)
	r := NewRNG(5)
	const draws = 200000
	counts := make([]int, z.N())
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	for k := 0; k < z.N(); k++ {
		got := float64(counts[k]) / draws
		want := z.P(k)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: empirical %v, pmf %v", k, got, want)
		}
	}
}

func TestZipfUniformWhenExponentZero(t *testing.T) {
	z := NewZipf(7, 0)
	for k := 0; k < 7; k++ {
		if math.Abs(z.P(k)-1.0/7) > 1e-12 {
			t.Errorf("P(%d) = %v, want 1/7", k, z.P(k))
		}
	}
}

func TestDiscreteAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 0, 3, 6}
	d := NewDiscrete(weights)
	r := NewRNG(6)
	const draws = 300000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[d.Sample(r)]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / draws
		want := w / 10
		if math.Abs(got-want) > 0.005 {
			t.Errorf("outcome %d: empirical %v, want %v", i, got, want)
		}
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight outcome sampled %d times", counts[1])
	}
}

func TestDiscretePNormalized(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		var sum float64
		for i, v := range raw {
			weights[i] = float64(v)
			sum += weights[i]
		}
		if sum == 0 {
			return true // all-zero weight vectors panic by contract
		}
		d := NewDiscrete(weights)
		var total float64
		for i := 0; i < d.N(); i++ {
			total += d.P(i)
		}
		return math.Abs(total-1) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDiscretePanicsOnBadInput(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"all-zero": {0, 0},
		"negative": {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDiscrete(%s) did not panic", name)
				}
			}()
			NewDiscrete(weights)
		}()
	}
}

func TestBinomialBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 500)
		p := float64(pRaw) / math.MaxUint16
		r := NewRNG(seed)
		v := Binomial(r, n, p)
		return v >= 0 && v <= n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialMean(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{100, 0.01}, {100, 0.3}, {10000, 0.001}, {50000, 0.002}, {10, 0.9},
	} {
		r := NewRNG(7)
		const draws = 20000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += float64(Binomial(r, tc.n, tc.p))
		}
		got := sum / draws
		want := float64(tc.n) * tc.p
		tol := 4 * math.Sqrt(want*(1-tc.p)/draws)
		if math.Abs(got-want) > tol+0.01 {
			t.Errorf("n=%d p=%v: mean %v, want %v ± %v", tc.n, tc.p, got, want, tol)
		}
	}
}

// binomialReference is Binomial as it was before P(X = 0) was split out into
// BinomialZero, kept verbatim so the split can be checked draw for draw.
func binomialReference(r *RNG, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if mean < 30 && n < 10000 {
		// Inversion by sequential search from the mode is O(n·p) expected.
		q := 1 - p
		// P(X = 0) = q^n computed in log space for stability.
		logq := math.Log(q)
		pk := math.Exp(float64(n) * logq)
		u := r.Float64()
		var k int
		cum := pk
		for cum < u && k < n {
			k++
			pk *= (float64(n-k+1) / float64(k)) * (p / q)
			cum += pk
		}
		return k
	}
	sd := math.Sqrt(mean * (1 - p))
	v := int(math.Round(mean + sd*r.NormFloat64()))
	if v < 0 {
		v = 0
	}
	if v > n {
		v = n
	}
	return v
}

// TestBinomialSplitDrawsIdentically: Binomial and BinomialFrom with a
// precomputed BinomialZero draw the same values as the reference and leave
// the RNG in the same state after every draw, on both the inversion and the
// normal-approximation branch and at every edge case.
func TestBinomialSplitDrawsIdentically(t *testing.T) {
	for _, n := range []int{0, 1, 2, 99, 9999, 10000, 20000} {
		for _, p := range []float64{0, 1e-6, 9e-4, 0.03, 0.5, 1} {
			for seed := uint64(1); seed <= 50; seed++ {
				ref, split, from := NewRNG(seed), NewRNG(seed), NewRNG(seed)
				p0 := BinomialZero(n, p)
				for draw := 0; draw < 4; draw++ {
					want := binomialReference(ref, n, p)
					if got := Binomial(split, n, p); got != want || *split != *ref {
						t.Fatalf("Binomial(n=%d, p=%v) seed %d draw %d = %d, want %d (rng state equal: %v)",
							n, p, seed, draw, got, want, *split == *ref)
					}
					if got := BinomialFrom(from, n, p, p0); got != want || *from != *ref {
						t.Fatalf("BinomialFrom(n=%d, p=%v) seed %d draw %d = %d, want %d (rng state equal: %v)",
							n, p, seed, draw, got, want, *from == *ref)
					}
				}
			}
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := NewRNG(8)
	if got := Binomial(r, 0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d, want 0", got)
	}
	if got := Binomial(r, 10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d, want 0", got)
	}
	if got := Binomial(r, 10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d, want 10", got)
	}
}
