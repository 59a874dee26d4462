package trust

import (
	"math"
	"testing"

	"spnet/internal/stats"
)

func TestScoreLaplacePrior(t *testing.T) {
	b := NewBook()
	if got := b.Score(7); got != 0.5 {
		t.Fatalf("unknown partner score = %v, want 0.5", got)
	}
	b.Observe(7, true)
	if got, want := b.Score(7), 2.0/3.0; math.Abs(got-want) > 1e-15 {
		t.Fatalf("after 1 good: score = %v, want %v", got, want)
	}
	b.Observe(7, false)
	b.Observe(7, false)
	if got, want := b.Score(7), 2.0/5.0; math.Abs(got-want) > 1e-15 {
		t.Fatalf("after 1 good 2 bad: score = %v, want %v", got, want)
	}
}

func TestObserveNWeights(t *testing.T) {
	a, b := NewBook(), NewBook()
	a.ObserveN(1, true, 3)
	for i := 0; i < 3; i++ {
		b.Observe(1, true)
	}
	if a.Score(1) != b.Score(1) {
		t.Fatalf("weight-3 observation %v != three unit observations %v", a.Score(1), b.Score(1))
	}
	before := a.Score(1)
	a.ObserveN(1, false, 0)
	a.ObserveN(1, false, -2)
	if a.Score(1) != before {
		t.Fatalf("non-positive weights must be ignored")
	}
}

func TestSetPriorPseudoCounts(t *testing.T) {
	b := NewBook()
	b.SetPrior(3, 0.9, 10) // 9 good, 1 bad pseudo-counts
	if got, want := b.Score(3), 10.0/12.0; math.Abs(got-want) > 1e-15 {
		t.Fatalf("prior score = %v, want %v", got, want)
	}
	// A strong prior takes contradicting evidence to overturn.
	for i := 0; i < 5; i++ {
		b.Observe(3, false)
	}
	if b.Score(3) <= 0.5 {
		t.Fatalf("score %v overturned too fast for a weight-10 prior", b.Score(3))
	}
	for i := 0; i < 20; i++ {
		b.Observe(3, false)
	}
	if b.Score(3) >= 0.5 {
		t.Fatalf("score %v should eventually drop below 0.5", b.Score(3))
	}
	b.SetPrior(4, 2, 4) // rel clamps to 1
	if got, want := b.Score(4), 5.0/6.0; math.Abs(got-want) > 1e-15 {
		t.Fatalf("clamped prior score = %v, want %v", got, want)
	}
}

func TestRankDeterministicTies(t *testing.T) {
	b := NewBook()
	b.Observe(2, true)
	b.Observe(5, false)
	got := b.Rank([]int{9, 5, 2, 1})
	want := []int{2, 1, 9, 5} // 2/3, 0.5 (tie → id asc), 1/3
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", got, want)
		}
	}
}

func TestWeight(t *testing.T) {
	b := NewBook()
	if w := b.Weight(1, 0.1); w != 1 {
		t.Fatalf("no-information weight = %v, want 1", w)
	}
	for i := 0; i < 8; i++ {
		b.Observe(1, true)
	}
	if w := b.Weight(1, 0.1); w != 1 {
		t.Fatalf("good partner weight = %v, want 1", w)
	}
	for i := 0; i < 100; i++ {
		b.Observe(2, false)
	}
	w := b.Weight(2, 0.1)
	if w >= 0.5 || w < 0.1 {
		t.Fatalf("bad partner weight = %v, want in [0.1, 0.5)", w)
	}
}

func TestDropAndLen(t *testing.T) {
	b := NewBook()
	b.Observe(1, true)
	b.Observe(2, false)
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	b.Drop(1)
	if b.Len() != 1 || b.Score(1) != 0.5 {
		t.Fatalf("Drop did not forget partner 1")
	}
	scores := b.Scores()
	if len(scores) != 1 || scores[2] != 1.0/3.0 {
		t.Fatalf("Scores = %v", scores)
	}
}

func TestNoisyPriorClamped(t *testing.T) {
	rng := stats.NewRNG(42)
	for i := 0; i < 1000; i++ {
		v := NoisyPrior(rng, 0.95, 0.3)
		if v < 0 || v > 1 {
			t.Fatalf("NoisyPrior out of range: %v", v)
		}
	}
	if v := NoisyPrior(rng, 0.7, 0); v != 0.7 {
		t.Fatalf("zero-noise prior = %v, want exact rel", v)
	}
	// Determinism: same seed, same stream.
	a, b := stats.NewRNG(7), stats.NewRNG(7)
	for i := 0; i < 10; i++ {
		if NoisyPrior(a, 0.5, 0.2) != NoisyPrior(b, 0.5, 0.2) {
			t.Fatalf("NoisyPrior not deterministic")
		}
	}
}

func TestAssign(t *testing.T) {
	rng := stats.NewRNG(3)
	m := Assign(rng, 100, 0.3)
	count := 0
	for _, v := range m {
		if v {
			count++
		}
	}
	if count != 30 {
		t.Fatalf("Assign marked %d of 100 at fraction 0.3, want 30", count)
	}
	// Deterministic under the same seed.
	a := Assign(stats.NewRNG(9), 50, 0.5)
	b := Assign(stats.NewRNG(9), 50, 0.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Assign not deterministic at index %d", i)
		}
	}
	if n := Assign(stats.NewRNG(1), 0, 0.5); len(n) != 0 {
		t.Fatalf("Assign(0 nodes) = %v", n)
	}
	all := Assign(stats.NewRNG(1), 10, 1.5) // clamped to 1
	for i, v := range all {
		if !v {
			t.Fatalf("fraction>1 should mark all; index %d honest", i)
		}
	}
	none := Assign(stats.NewRNG(1), 10, 0)
	for i, v := range none {
		if v {
			t.Fatalf("fraction 0 should mark none; index %d malicious", i)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	b := NewBook()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				b.Observe(g, i%3 == 0)
				_ = b.Score(g)
				_ = b.Rank([]int{0, 1, 2, 3})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
}
