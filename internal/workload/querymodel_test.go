package workload

import (
	"math"
	"testing"
	"testing/quick"

	"spnet/internal/stats"
)

func TestDefaultQueryModelCalibration(t *testing.T) {
	m := NewDefaultQueryModel()
	if got := m.MeanSelectionPower(); math.Abs(got-9e-4)/9e-4 > 1e-6 {
		t.Errorf("MeanSelectionPower = %v, want 9e-4", got)
	}
	// Anchor from Fig. 8 / Fig. 11: a 10⁶-file reach returns ≈900 results.
	if got := m.ExpectedResults(1_000_000); math.Abs(got-900) > 1 {
		t.Errorf("ExpectedResults(1e6) = %v, want ~900", got)
	}
}

func TestExpectedResultsLinear(t *testing.T) {
	m := NewDefaultQueryModel()
	if got := m.ExpectedResults(0); got != 0 {
		t.Errorf("ExpectedResults(0) = %v", got)
	}
	a, b := m.ExpectedResults(1000), m.ExpectedResults(2000)
	if math.Abs(b-2*a) > 1e-9 {
		t.Errorf("not linear: %v, %v", a, b)
	}
}

func TestProbAnyResultProperties(t *testing.T) {
	m := NewDefaultQueryModel()
	if got := m.ProbAnyResult(0); got != 0 {
		t.Errorf("ProbAnyResult(0) = %v", got)
	}
	prev := 0.0
	for _, n := range []int{1, 10, 100, 1000, 100000, 10000000} {
		p := m.ProbAnyResult(n)
		if p < prev {
			t.Errorf("ProbAnyResult not monotone at n=%d: %v < %v", n, p, prev)
		}
		if p < 0 || p > 1 {
			t.Errorf("ProbAnyResult(%d) = %v outside [0,1]", n, p)
		}
		prev = p
	}
	// With an enormous collection every class matches, so the probability
	// approaches 1.
	if p := m.ProbAnyResult(100_000_000); p < 0.99 {
		t.Errorf("ProbAnyResult(1e8) = %v, want ~1", p)
	}
}

func TestProbAnyResultUpperBound(t *testing.T) {
	// P(any) <= E[count] (Markov) for all collection sizes.
	m := NewDefaultQueryModel()
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw)
		return m.ProbAnyResult(n) <= m.ExpectedResults(n)+1e-12
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestExpectedMatchingClients(t *testing.T) {
	m := NewDefaultQueryModel()
	k := m.ExpectedMatchingClients([]int{100, 100, 0})
	if want := 2 * m.ProbAnyResult(100); math.Abs(k-want) > 1e-12 {
		t.Errorf("ExpectedMatchingClients = %v, want %v", k, want)
	}
	if m.ExpectedMatchingClients(nil) != 0 {
		t.Error("empty collections should give 0")
	}
	// K is bounded by the number of collections.
	if k := m.ExpectedMatchingClients([]int{1e6, 1e6}); k > 2 {
		t.Errorf("K = %v > 2 collections", k)
	}
}

func TestMonteCarloMatchesExpectations(t *testing.T) {
	// The sampling interface (used by the simulator) must agree with the
	// analytic expectations (used by the analysis engine).
	m := NewDefaultQueryModel()
	rng := stats.NewRNG(1)
	const (
		draws = 200000
		files = 5000
	)
	var totalResults float64
	var anyResult float64
	for i := 0; i < draws; i++ {
		j := m.SampleClass(rng)
		n := m.SampleMatches(rng, j, files)
		totalResults += float64(n)
		if n > 0 {
			anyResult++
		}
	}
	gotMean := totalResults / draws
	wantMean := m.ExpectedResults(files)
	if math.Abs(gotMean-wantMean)/wantMean > 0.05 {
		t.Errorf("Monte-Carlo mean results %v, analytic %v", gotMean, wantMean)
	}
	gotAny := anyResult / draws
	wantAny := m.ProbAnyResult(files)
	if math.Abs(gotAny-wantAny) > 0.01 {
		t.Errorf("Monte-Carlo P(any) %v, analytic %v", gotAny, wantAny)
	}
}

// TestSampleMatchesFromNoMatchProb: drawing with P(no match) supplied from
// NoMatchProb consumes the RNG exactly as SampleMatches does.
func TestSampleMatchesFromNoMatchProb(t *testing.T) {
	m := NewDefaultQueryModel()
	for _, n := range []int{0, 1, 37, 500, 12000} {
		a, b := stats.NewRNG(uint64(n)), stats.NewRNG(uint64(n))
		for i := 0; i < 2000; i++ {
			j := m.SampleClass(a)
			if m.SampleClass(b) != j {
				t.Fatal("class draws diverged")
			}
			if got, want := m.SampleMatchesFrom(b, j, n, m.NoMatchProb(j, n)), m.SampleMatches(a, j, n); got != want || *a != *b {
				t.Fatalf("n=%d draw %d class %d: memoised %d, direct %d", n, i, j, got, want)
			}
		}
	}
}

func TestSampleClassMatchesPopularity(t *testing.T) {
	m := NewDefaultQueryModel()
	rng := stats.NewRNG(2)
	const draws = 100000
	count0 := 0
	for i := 0; i < draws; i++ {
		if m.SampleClass(rng) == 0 {
			count0++
		}
	}
	got := float64(count0) / draws
	if math.Abs(got-m.Popularity(0)) > 0.01 {
		t.Errorf("class 0 frequency %v, want %v", got, m.Popularity(0))
	}
}

func TestNewQueryModelValidation(t *testing.T) {
	cases := []struct {
		name string
		g, f []float64
	}{
		{"empty", nil, nil},
		{"mismatch", []float64{1}, []float64{0.1, 0.2}},
		{"negative g", []float64{-1, 2}, []float64{0.1, 0.1}},
		{"zero sum", []float64{0, 0}, []float64{0.1, 0.1}},
		{"f out of range", []float64{1, 1}, []float64{0.5, 1.5}},
		{"f negative", []float64{1, 1}, []float64{0.5, -0.1}},
	}
	for _, tc := range cases {
		if _, err := NewQueryModel(tc.g, tc.f); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestNewQueryModelNormalizes(t *testing.T) {
	m, err := NewQueryModel([]float64{3, 1}, []float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Popularity(0)-0.75) > 1e-12 {
		t.Errorf("Popularity(0) = %v, want 0.75", m.Popularity(0))
	}
	want := 0.75*0.1 + 0.25*0.2
	if math.Abs(m.MeanSelectionPower()-want) > 1e-12 {
		t.Errorf("pbar = %v, want %v", m.MeanSelectionPower(), want)
	}
}

func TestZipfQueryModelValidation(t *testing.T) {
	if _, err := NewZipfQueryModel(QueryModelParams{Classes: 0, MeanSelectionPower: 1e-3}); err == nil {
		t.Error("Classes=0 accepted")
	}
	if _, err := NewZipfQueryModel(QueryModelParams{Classes: 10, MeanSelectionPower: 0}); err == nil {
		t.Error("zero selection power accepted")
	}
	// Very high mean selection power with few classes pushes f above 1.
	if _, err := NewZipfQueryModel(QueryModelParams{Classes: 2, PopularityExp: 3, MeanSelectionPower: 0.99}); err == nil {
		t.Error("f > 1 accepted")
	}
}

func TestSelectionPowerCorrelatesWithPopularity(t *testing.T) {
	m := NewDefaultQueryModel()
	for j := 1; j < m.Classes(); j++ {
		if m.SelectionPower(j) > m.SelectionPower(j-1) {
			t.Fatalf("selection power not non-increasing at class %d", j)
		}
	}
}
