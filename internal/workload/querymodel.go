// Package workload models user behavior in the super-peer file-sharing
// system: the query model of Yang & Garcia-Molina's "Comparing Hybrid
// Peer-to-Peer Systems" [25] used in Appendix B, the per-peer file-count and
// session-lifespan distributions after the Gnutella measurements of Saroiu
// et al. [22], and the action rates of Table 1 / Table 3.
//
// The paper uses distributions measured over OpenNap and Gnutella that are
// not available; this package substitutes synthetic equivalents calibrated
// to the anchors the paper itself reports (see DESIGN.md, substitutions
// 2 and 3).
package workload

import (
	"fmt"
	"math"

	"spnet/internal/stats"
)

// QueryModel is the query model of [25]: a finite set of query classes where
// g(j) is the probability a submitted query belongs to class j, and f(j) is
// the class's selection power — the probability that a random file matches a
// class-j query. The model assumes file matches are independent, so a
// collection of n files returns binomial(n, f(j)) results for a class-j
// query (Appendix B).
type QueryModel struct {
	g       []float64 // query popularity, sums to 1
	f       []float64 // selection power per class, each in [0, 1]
	sampler *stats.Discrete
	pbar    float64 // Σ g(j)·f(j), the mean selection power
}

// NewQueryModel builds a query model from explicit popularity and selection
// power vectors. g is normalized; every f must lie in [0, 1].
func NewQueryModel(g, f []float64) (*QueryModel, error) {
	if len(g) == 0 || len(g) != len(f) {
		return nil, fmt.Errorf("workload: query model needs matching non-empty g, f; got %d, %d", len(g), len(f))
	}
	var sum float64
	for j, w := range g {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("workload: g[%d] = %v, want >= 0", j, w)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("workload: query popularity sums to %v", sum)
	}
	m := &QueryModel{
		g: make([]float64, len(g)),
		f: make([]float64, len(f)),
	}
	for j := range g {
		if f[j] < 0 || f[j] > 1 || math.IsNaN(f[j]) {
			return nil, fmt.Errorf("workload: f[%d] = %v, want [0, 1]", j, f[j])
		}
		m.g[j] = g[j] / sum
		m.f[j] = f[j]
		m.pbar += m.g[j] * m.f[j]
	}
	m.sampler = stats.NewDiscrete(m.g)
	return m, nil
}

// DefaultQueryModelParams are the synthetic stand-ins for the OpenNap
// measurements of [25]: Zipf query popularity over Classes ranks with
// exponent PopularityExp, and selection power proportional to popularity
// (popular queries target popular content), scaled so the mean selection
// power equals MeanSelectionPower.
//
// MeanSelectionPower is calibrated from the paper's own reported numbers:
// ≈269 results over a 3000-peer reach (Fig. 11) and ≈890 results over a
// 10000-peer reach (Fig. 8) both give p̄ ≈ 9×10⁻⁴ at ~100 files/peer.
type QueryModelParams struct {
	Classes            int
	PopularityExp      float64
	MeanSelectionPower float64
}

// DefaultQueryModelParams returns the calibrated defaults.
func DefaultQueryModelParams() QueryModelParams {
	return QueryModelParams{
		Classes:            100,
		PopularityExp:      1.0,
		MeanSelectionPower: 9e-4,
	}
}

// NewDefaultQueryModel builds the default synthetic query model.
func NewDefaultQueryModel() *QueryModel {
	m, err := NewZipfQueryModel(DefaultQueryModelParams())
	if err != nil {
		// The defaults are compile-time constants; failing to build them is
		// a programming error.
		panic(err)
	}
	return m
}

// NewZipfQueryModel builds a query model from QueryModelParams.
func NewZipfQueryModel(p QueryModelParams) (*QueryModel, error) {
	if p.Classes <= 0 {
		return nil, fmt.Errorf("workload: Classes = %d, want > 0", p.Classes)
	}
	if p.MeanSelectionPower <= 0 || p.MeanSelectionPower >= 1 {
		return nil, fmt.Errorf("workload: MeanSelectionPower = %v, want (0, 1)", p.MeanSelectionPower)
	}
	z := stats.NewZipf(p.Classes, p.PopularityExp)
	g := make([]float64, p.Classes)
	f := make([]float64, p.Classes)
	var gg float64
	for j := range g {
		g[j] = z.P(j)
		gg += g[j] * g[j]
	}
	scale := p.MeanSelectionPower / gg
	for j := range f {
		f[j] = scale * g[j]
		if f[j] > 1 {
			return nil, fmt.Errorf("workload: selection power of class %d is %v > 1; lower MeanSelectionPower or raise Classes", j, f[j])
		}
	}
	return NewQueryModel(g, f)
}

// Classes returns the number of query classes.
func (m *QueryModel) Classes() int { return len(m.g) }

// Popularity returns g(j).
func (m *QueryModel) Popularity(j int) float64 { return m.g[j] }

// SelectionPower returns f(j).
func (m *QueryModel) SelectionPower(j int) float64 { return m.f[j] }

// MeanSelectionPower returns p̄ = Σ g(j)·f(j).
func (m *QueryModel) MeanSelectionPower() float64 { return m.pbar }

// ExpectedResults returns E[N_T | I] for an index of totalFiles files
// (Appendix B, eq. 5): Σ g(j)·f(j)·x_tot = p̄·x_tot.
func (m *QueryModel) ExpectedResults(totalFiles int) float64 {
	return m.pbar * float64(totalFiles)
}

// ProbAnyResult returns the probability that a collection of n files
// produces at least one result for a random query:
// Σ g(j)·(1 − (1−f(j))^n). It is the E[Q_i] term of Appendix B eq. 6, and
// also the probability that a super-peer with an n-file index sends a
// Response at all.
func (m *QueryModel) ProbAnyResult(n int) float64 {
	if n <= 0 {
		return 0
	}
	var p float64
	x := float64(n)
	for j := range m.g {
		p += m.g[j] * (1 - math.Pow(1-m.f[j], x))
	}
	return p
}

// ExpectedMatchingClients returns E[K_T | I] (Appendix B, eq. 6): the
// expected number of collections among collections (one entry per client,
// and per local partner if desired) that produce at least one result.
func (m *QueryModel) ExpectedMatchingClients(collections []int) float64 {
	var k float64
	for _, n := range collections {
		k += m.ProbAnyResult(n)
	}
	return k
}

// SampleClass draws a query class according to g. The simulator uses it to
// generate concrete queries.
func (m *QueryModel) SampleClass(rng *stats.RNG) int { return m.sampler.Sample(rng) }

// SampleMatches draws the number of matching files in a collection of n
// files for a class-j query: binomial(n, f(j)).
func (m *QueryModel) SampleMatches(rng *stats.RNG, j, n int) int {
	return stats.Binomial(rng, n, m.f[j])
}

// NoMatchProb returns the probability stats.BinomialZero(n, f(j)) that an
// n-file collection matches nothing for a class-j query. A caller that
// samples the same (j, n) repeatedly memoises it and passes it to
// SampleMatchesFrom; the model itself keeps no cache, so one model is safe
// to share between concurrent callers.
func (m *QueryModel) NoMatchProb(j, n int) float64 { return stats.BinomialZero(n, m.f[j]) }

// SampleMatchesFrom is SampleMatches with p0 = NoMatchProb(j, n) supplied by
// the caller: the same draw from the same RNG output.
func (m *QueryModel) SampleMatchesFrom(rng *stats.RNG, j, n int, p0 float64) int {
	return stats.BinomialFrom(rng, n, m.f[j], p0)
}
