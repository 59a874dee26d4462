package stats

import (
	"fmt"
	"math"
)

// Normal is a normal (Gaussian) distribution. The paper draws cluster sizes
// from N(c̄, .2c̄) (Section 4, Step 1).
type Normal struct {
	Mean   float64
	StdDev float64
}

// Sample draws one variate.
func (d Normal) Sample(r *RNG) float64 { return d.Mean + d.StdDev*r.NormFloat64() }

// SampleNonNegInt draws a variate rounded to the nearest integer, clamped to
// be >= min. Cluster sizes and file counts must be non-negative integers.
func (d Normal) SampleNonNegInt(r *RNG, min int) int {
	v := int(math.Round(d.Sample(r)))
	if v < min {
		return min
	}
	return v
}

// BoundedPareto is a Pareto distribution truncated to [L, H]. It is the
// heavy-tailed workhorse used to model per-peer file counts and session
// lifespans after the Gnutella measurements of Saroiu et al. [22]
// (see DESIGN.md, substitution 2).
type BoundedPareto struct {
	Alpha float64 // tail exponent, > 0
	L     float64 // lower bound, > 0
	H     float64 // upper bound, > L
}

// Sample draws one variate by inverse-transform sampling.
func (d BoundedPareto) Sample(r *RNG) float64 {
	u := r.Float64()
	la := math.Pow(d.L, d.Alpha)
	ha := math.Pow(d.H, d.Alpha)
	// Inverse CDF of the bounded Pareto.
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/d.Alpha)
}

// Mean returns the analytic mean of the bounded Pareto.
func (d BoundedPareto) Mean() float64 {
	a := d.Alpha
	if a == 1 {
		return d.L * d.H / (d.H - d.L) * math.Log(d.H/d.L)
	}
	la := math.Pow(d.L, a)
	return a * la * (math.Pow(d.L, 1-a) - math.Pow(d.H, 1-a)) /
		((a - 1) * (1 - math.Pow(d.L/d.H, a)))
}

// Zipf holds normalized Zipf probabilities over ranks 1..N:
// P(rank k) ∝ 1/k^S. The query model uses it for query popularity g(j).
type Zipf struct {
	weights []float64 // normalized probabilities, index 0 = rank 1
	cum     []float64 // cumulative, for sampling
}

// NewZipf builds a Zipf distribution over n ranks with exponent s. It panics
// if n <= 0 or s < 0, which indicate a programming error in the caller.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("stats: NewZipf n = %d, want > 0", n))
	}
	if s < 0 {
		panic(fmt.Sprintf("stats: NewZipf s = %v, want >= 0", s))
	}
	z := &Zipf{
		weights: make([]float64, n),
		cum:     make([]float64, n),
	}
	var sum float64
	for k := 0; k < n; k++ {
		z.weights[k] = 1 / math.Pow(float64(k+1), s)
		sum += z.weights[k]
	}
	var c float64
	for k := 0; k < n; k++ {
		z.weights[k] /= sum
		c += z.weights[k]
		z.cum[k] = c
	}
	z.cum[n-1] = 1 // guard against rounding
	return z
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.weights) }

// P returns the probability of rank k (0-based).
func (z *Zipf) P(k int) float64 { return z.weights[k] }

// Sample draws a 0-based rank.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search the cumulative table.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Discrete is a general finite discrete distribution sampled in O(1) via
// Walker's alias method. The simulator uses it for query-class draws.
type Discrete struct {
	n     int
	prob  []float64
	alias []int
	p     []float64 // original normalized probabilities
}

// NewDiscrete builds an alias table for the given non-negative weights.
// It panics if weights is empty or sums to zero.
func NewDiscrete(weights []float64) *Discrete {
	n := len(weights)
	if n == 0 {
		panic("stats: NewDiscrete with no weights")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("stats: NewDiscrete weight[%d] = %v, want >= 0", i, w))
		}
		sum += w
	}
	if sum == 0 {
		panic("stats: NewDiscrete weights sum to zero")
	}
	d := &Discrete{
		n:     n,
		prob:  make([]float64, n),
		alias: make([]int, n),
		p:     make([]float64, n),
	}
	scaled := make([]float64, n)
	for i, w := range weights {
		d.p[i] = w / sum
		scaled[i] = d.p[i] * float64(n)
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, s := range scaled {
		if s < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		d.prob[s] = scaled[s]
		d.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		d.prob[i] = 1
		d.alias[i] = i
	}
	for _, i := range small {
		d.prob[i] = 1
		d.alias[i] = i
	}
	return d
}

// P returns the normalized probability of outcome i.
func (d *Discrete) P(i int) float64 { return d.p[i] }

// N returns the number of outcomes.
func (d *Discrete) N() int { return d.n }

// Sample draws one outcome index.
func (d *Discrete) Sample(r *RNG) int {
	i := r.Intn(d.n)
	if r.Float64() < d.prob[i] {
		return i
	}
	return d.alias[i]
}

// Binomial samples the number of successes in n independent trials with
// success probability p. The simulator uses it to draw how many of a
// collection's files match a query (Appendix B's binomial(n, p) model).
// For small n·p it uses inversion; otherwise a normal approximation with
// continuity correction, clamped to [0, n].
func Binomial(r *RNG, n int, p float64) int {
	var p0 float64
	if n > 0 && p > 0 && p < 1 {
		p0 = BinomialZero(n, p)
	}
	return BinomialFrom(r, n, p, p0)
}

// BinomialZero returns P(X = 0) = (1−p)^n of a binomial(n, p) draw, computed
// in log space for stability. It is the only transcendental work in the
// inversion sampler, so callers that draw repeatedly for the same (n, p) can
// compute it once and use BinomialFrom.
func BinomialZero(n int, p float64) float64 {
	return math.Exp(float64(n) * math.Log(1-p))
}

// BinomialFrom is Binomial with P(X = 0) supplied by the caller, who must
// pass exactly BinomialZero(n, p) (it is read only on the inversion branch).
// It draws the same values, consuming the same RNG output, as Binomial.
func BinomialFrom(r *RNG, n int, p, p0 float64) int {
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
		pk := p0
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
