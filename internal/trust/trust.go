// Package trust implements the seeded, deterministic reputation subsystem
// shared by the simulator, the live p2p nodes, and the supervised client.
//
// The model is the iris "spread" exemplar's reliability bookkeeping adapted
// to the super-peer setting: every node keeps a per-partner reliability
// score updated from observed behavior (answered queries, refusals, forged
// or unsolicited QueryHits), seeded with a noisy initial view of each
// partner's true reliability (rel_book). Scores are beta-style posteriors
// with a Laplace prior,
//
//	score = (good + 1) / (good + bad + 2)
//
// the same estimator shape the learned routing strategy uses for hit rates,
// so a partner with no observations scores 0.5 and every observation moves
// the score monotonically. Priors enter as pseudo-counts, so a strong noisy
// prior takes several contradicting observations to overturn — exactly the
// rel_book failure mode the trustsweep experiment measures.
//
// All randomness is caller-supplied (stats.RNG), keeping every layer
// bit-deterministic: the simulator draws priors and adversary assignments
// from a salted stream independent of the golden-pinned simulation stream.
package trust

import (
	"math"
	"sort"
	"sync"

	"spnet/internal/stats"
)

// cred is one partner's observation tally. Counts are float64 so priors and
// fractional-weight observations (e.g. a partial audit) compose.
type cred struct {
	good float64
	bad  float64
}

// Book holds reputation scores for a set of partners keyed by integer id
// (sim: global partner id; live: peerID or client address index). It is
// safe for concurrent use; the simulator's single-threaded loop and the
// live node's connection goroutines share the same implementation.
type Book struct {
	mu    sync.Mutex
	creds map[int]*cred
}

// NewBook returns an empty book: every unknown partner scores 0.5.
func NewBook() *Book {
	return &Book{creds: make(map[int]*cred)}
}

func (b *Book) cred(id int) *cred {
	c := b.creds[id]
	if c == nil {
		c = &cred{}
		b.creds[id] = c
	}
	return c
}

// Observe records one good or bad interaction with partner id.
func (b *Book) Observe(id int, good bool) { b.ObserveN(id, good, 1) }

// ObserveN records an observation with the given weight (weight 2 counts as
// two unit observations). Non-positive weights are ignored.
func (b *Book) ObserveN(id int, good bool, weight float64) {
	if weight <= 0 {
		return
	}
	b.mu.Lock()
	c := b.cred(id)
	if good {
		c.good += weight
	} else {
		c.bad += weight
	}
	b.mu.Unlock()
}

// SetPrior installs an initial reliability view for partner id as
// pseudo-counts: rel in [0,1] observed with the given total weight. It
// replaces any existing tally, so call it before real observations.
func (b *Book) SetPrior(id int, rel, weight float64) {
	if weight < 0 {
		weight = 0
	}
	rel = clamp01(rel)
	b.mu.Lock()
	b.creds[id] = &cred{good: rel * weight, bad: (1 - rel) * weight}
	b.mu.Unlock()
}

// Score returns the posterior reliability of partner id: (good+1)/(good+bad+2).
// Unknown partners score 0.5.
func (b *Book) Score(id int) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.creds[id]
	if c == nil {
		return 0.5
	}
	return (c.good + 1) / (c.good + c.bad + 2)
}

// Drop forgets partner id (e.g. a departed neighbor), bounding book memory.
func (b *Book) Drop(id int) {
	b.mu.Lock()
	delete(b.creds, id)
	b.mu.Unlock()
}

// Len reports how many partners the book tracks.
func (b *Book) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.creds)
}

// Rank orders the given partner ids by descending score, ties broken by
// ascending id so equal-score rankings are deterministic. The slice is
// sorted in place and returned.
func (b *Book) Rank(ids []int) []int {
	b.mu.Lock()
	scores := make(map[int]float64, len(ids))
	for _, id := range ids {
		s := 0.5
		if c := b.creds[id]; c != nil {
			s = (c.good + 1) / (c.good + c.bad + 2)
		}
		scores[id] = s
	}
	b.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool {
		if scores[ids[i]] != scores[ids[j]] {
			return scores[ids[i]] > scores[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Weight maps partner id's score to an admission weight in [floor, 1]:
// score 0.5 (no information) maps to 1 so trust-aware admission is a no-op
// until evidence accumulates, and the weight decays linearly to floor as
// the score approaches 0. Scores above 0.5 keep weight 1.
func (b *Book) Weight(id int, floor float64) float64 {
	floor = clamp01(floor)
	s := b.Score(id)
	if s >= 0.5 {
		return 1
	}
	return floor + (1-floor)*(s/0.5)
}

// NoisyPrior draws a rel_book-style noisy view of a true reliability: a
// normal perturbation with the given standard deviation, clamped to [0,1].
func NoisyPrior(rng *stats.RNG, rel, noise float64) float64 {
	if noise <= 0 {
		return clamp01(rel)
	}
	return clamp01(rel + rng.NormFloat64()*noise)
}

// Assign marks round(fraction*n) of n nodes malicious via a seeded shuffle
// (the iris assign_malicious_rate pattern): returns a boolean slice where
// true means malicious. fraction is clamped to [0,1].
func Assign(rng *stats.RNG, n int, fraction float64) []bool {
	malicious := make([]bool, n)
	if n <= 0 {
		return malicious
	}
	m := int(math.Round(clamp01(fraction) * float64(n)))
	for _, i := range rng.Perm(n)[:m] {
		malicious[i] = true
	}
	return malicious
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
