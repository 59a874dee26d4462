package routing

import (
	"fmt"
	"strconv"
	"strings"
)

// Flood is the paper's protocol: forward to every eligible neighbor. It keeps
// no state, consumes no randomness, and emits candidates in their given
// order, so hosts that previously iterated neighbors directly behave
// bit-identically when flood is selected.
type Flood struct{}

// NewFlood returns the flood strategy.
func NewFlood() Flood { return Flood{} }

// Name implements Strategy.
func (Flood) Name() string { return "flood" }

// Select implements Strategy: every candidate, in order.
func (Flood) Select(dst []int, _ Query, cands []Candidate, _ *NodeState) []int {
	for i := range cands {
		dst = append(dst, i)
	}
	return dst
}

// RandomWalk forwards along k random edges at the source and one random edge
// per arriving walker at relays: k independent walkers of bounded length TTL.
type RandomWalk struct{ k int }

// DefaultWalkers is the walker count of "randomwalk" with no explicit :k.
const DefaultWalkers = 2

// NewRandomWalk returns a k-walker random-walk strategy (k < 1 is clamped
// to 1).
func NewRandomWalk(k int) RandomWalk {
	if k < 1 {
		k = 1
	}
	return RandomWalk{k: k}
}

// Name implements Strategy.
func (s RandomWalk) Name() string {
	if s.k == DefaultWalkers {
		return "randomwalk"
	}
	return "randomwalk:" + strconv.Itoa(s.k)
}

// Select implements Strategy: k distinct uniform picks at the source, one at
// a relay, drawn from ns's RNG.
func (s RandomWalk) Select(dst []int, q Query, cands []Candidate, ns *NodeState) []int {
	n := len(cands)
	if n == 0 {
		return dst
	}
	k := 1
	if q.Hops == 0 {
		k = s.k
	}
	if k >= n {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	idx := ns.scratch[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	ns.scratch = idx
	// Partial Fisher–Yates: the first k slots become a uniform k-subset.
	for j := 0; j < k; j++ {
		swap := j + ns.rng.Intn(n-j)
		idx[j], idx[swap] = idx[swap], idx[j]
		dst = append(dst, idx[j])
	}
	return dst
}

// RoutingIndex forwards a query only to neighbors whose advertised term
// summary contains every query term — Crespo & Garcia-Molina's routing
// indices specialized to term sets. Matching is conservative: a neighbor with
// no summary yet, and any query without terms, is treated as matching, so the
// strategy can only over-forward, never lose results a flood would find (on
// acyclic overlays; cycles can additionally retain stale terms, which again
// only over-forwards).
type RoutingIndex struct{}

// NewRoutingIndex returns the routing-index strategy.
func NewRoutingIndex() RoutingIndex { return RoutingIndex{} }

// Name implements Strategy.
func (RoutingIndex) Name() string { return "routingindex" }

// usesSummaries marks the strategy for UsesSummaries.
func (RoutingIndex) usesSummaries() {}

// Select implements Strategy.
func (RoutingIndex) Select(dst []int, q Query, cands []Candidate, ns *NodeState) []int {
	if len(q.Terms) == 0 {
		for i := range cands {
			dst = append(dst, i)
		}
		return dst
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for i, c := range cands {
		st := ns.nbrs[c.ID]
		if st == nil || st.summary == nil {
			dst = append(dst, i) // no summary yet: assume reachable
			continue
		}
		match := true
		for _, t := range q.Terms {
			if _, ok := st.summary[t]; !ok {
				match = false
				break
			}
		}
		if match {
			dst = append(dst, i)
		}
	}
	return dst
}

const (
	// learnedThreshold is the per-term success-rate floor: a neighbor whose
	// best Laplace-smoothed hit rate over the query's terms is at or below
	// it is pruned. (hits+1)/(forwards+2) crosses 0.2 after three fruitless
	// forwards of a term.
	learnedThreshold = 0.2
	// learnedExplore is the probability a pruned neighbor is forwarded to
	// anyway, so the score can recover when content appears behind it.
	learnedExplore = 0.05
)

// Learned scores each neighbor×term by Laplace-smoothed hit history,
// (hits+1)/(forwards+2), and forwards a query to the neighbors whose best
// score over the query's terms clears a threshold. Unseen terms score 0.5, so
// a new neighbor is explored before it can be pruned; pruned neighbors are
// retried with a small exploration probability.
type Learned struct{}

// NewLearned returns the hit-history strategy.
func NewLearned() Learned { return Learned{} }

// Name implements Strategy.
func (Learned) Name() string { return "learned" }

// learnsHits marks the strategy for Learns.
func (Learned) learnsHits() {}

// Select implements Strategy.
func (Learned) Select(dst []int, q Query, cands []Candidate, ns *NodeState) []int {
	if len(q.Terms) == 0 {
		for i := range cands {
			dst = append(dst, i)
		}
		return dst
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for i, c := range cands {
		st := ns.nbrs[c.ID]
		best := 0.0
		for _, t := range q.Terms {
			var f, h float64
			if st != nil {
				f, h = st.forwards[t], st.hits[t]
			}
			if score := (h + 1) / (f + 2); score > best {
				best = score
			}
		}
		if best > learnedThreshold || ns.rng.Float64() < learnedExplore {
			dst = append(dst, i)
		}
	}
	return dst
}

// UsesSummaries reports whether the strategy routes on per-neighbor content
// summaries, i.e. whether the host must build and propagate them.
func UsesSummaries(s Strategy) bool {
	_, ok := s.(interface{ usesSummaries() })
	return ok
}

// Learns reports whether the strategy consumes forward/hit history, i.e.
// whether the host must call RecordForward and RecordHit.
func Learns(s Strategy) bool {
	_, ok := s.(interface{ learnsHits() })
	return ok
}

// Names lists the accepted strategy specs for flag help.
func Names() []string {
	return []string{"flood", "randomwalk[:k]", "routingindex", "learned"}
}

// Parse resolves a strategy spec — "flood", "randomwalk", "randomwalk:k",
// "routingindex" or "learned" — to a Strategy.
func Parse(spec string) (Strategy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "flood":
		if hasArg {
			return nil, fmt.Errorf("routing: flood takes no argument (got %q)", spec)
		}
		return NewFlood(), nil
	case "randomwalk":
		k := DefaultWalkers
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("routing: bad walker count in %q", spec)
			}
			k = v
		}
		return NewRandomWalk(k), nil
	case "routingindex":
		if hasArg {
			return nil, fmt.Errorf("routing: routingindex takes no argument (got %q)", spec)
		}
		return NewRoutingIndex(), nil
	case "learned":
		if hasArg {
			return nil, fmt.Errorf("routing: learned takes no argument (got %q)", spec)
		}
		return NewLearned(), nil
	}
	return nil, fmt.Errorf("routing: unknown strategy %q (known: %s)", spec, strings.Join(Names(), ", "))
}
