// Package routing makes query forwarding pluggable: a Strategy decides, per
// hop, which overlay neighbors receive a query, replacing the TTL flood the
// paper hardcodes ("a super-peer sends the query to all of its neighbors").
//
// The same interface is consumed by all three evaluation layers — the
// discrete-event simulator, the live TCP super-peers, and (through the
// Forwards analytic model) the mean-value analysis engine — so a routing
// design can be priced analytically, validated in simulation, and measured on
// a real network without reimplementing it per layer.
//
// Four strategies ship behind the interface:
//
//   - flood: the paper's protocol, forwarding to every eligible neighbor.
//     Selecting flood reproduces the pre-strategy code paths bit-identically.
//   - randomwalk: k seeded walkers; the source picks k random neighbors, each
//     relay forwards a walker along one random edge (Lv et al.'s alternative
//     to flooding).
//   - routingindex: per-neighbor content summaries in the style of Crespo &
//     Garcia-Molina's routing indices — forward only where the advertised
//     term set can match the query.
//   - learned: a hit-history score per neighbor×term (the data-mining routing
//     angle), pruning neighbors whose forwards never produce results.
package routing

import (
	"sort"
	"sync"

	"spnet/internal/stats"
)

// Per-neighbor memory bounds. A misbehaving or fast-churning neighbor must
// not be able to grow a node's routing state without limit: learned-strategy
// hit history freezes once a neighbor has MaxLearnedTerms distinct terms
// (existing terms keep counting; new terms are ignored), and advertised
// summaries are truncated to MaxSummaryTerms (deterministically, keeping the
// lexicographically smallest terms, which only ever over-prunes forwarding
// for the dropped terms).
const (
	MaxLearnedTerms = 512
	MaxSummaryTerms = 4096
)

// Query is the routing-relevant view of one query at a forwarding decision.
type Query struct {
	// ID is the query's flood identifier (used for deduplication by the
	// hosts; strategies may use it to vary per-query choices).
	ID uint64
	// Terms are the lowercased keywords, empty when the host evaluates
	// queries abstractly (the simulator's query-class mode). Content-aware
	// strategies degrade to flood on term-less queries.
	Terms []string
	// TTL is the remaining time-to-live at the forwarding node (>= 1, or the
	// host would not be forwarding).
	TTL int
	// Hops is how many overlay hops the query has already traveled: 0 at the
	// source super-peer, >= 1 at relays.
	Hops int
}

// Candidate is one eligible forwarding target: an overlay neighbor that is up
// and is not the neighbor the query arrived from.
type Candidate struct {
	// ID identifies the neighbor in the host's stable namespace (cluster id
	// in the simulator, peer id on a live node) and keys NodeState.
	ID int
}

// Strategy selects forwarding targets for a query. Implementations must be
// safe for concurrent use when the host is (live nodes call Select from many
// goroutines; all mutable state lives in the NodeState, which locks).
type Strategy interface {
	// Name returns the stable identifier used in flags, metric labels and
	// reports ("flood", "randomwalk", ...).
	Name() string
	// Select appends to dst the indices into cands of the neighbors the
	// query should be forwarded to, and returns the extended slice. Indices
	// are emitted in increasing order of position in cands except where a
	// strategy's semantics are order-dependent (randomwalk emits in draw
	// order). ns carries the node's per-neighbor routing state and may be
	// nil only for strategies that keep no state (flood).
	Select(dst []int, q Query, cands []Candidate, ns *NodeState) []int
}

// neighborState is the per-neighbor slot of a NodeState.
type neighborState struct {
	// summary is the neighbor's advertised reachable term set, nil until a
	// first summary arrives (no summary = assume anything matches).
	summary map[string]struct{}
	// forwards and hits count per-term outcomes for the learned strategy:
	// queries containing the term forwarded to this neighbor, and responses
	// that came back through it.
	forwards map[string]float64
	hits     map[string]float64
}

// NodeState holds one node's routing state: a seeded RNG for randomized
// strategies and a per-neighbor slot keyed by Candidate.ID. All methods are
// safe for concurrent use.
type NodeState struct {
	mu      sync.Mutex
	rng     *stats.RNG
	nbrs    map[int]*neighborState
	scratch []int
}

// NewNodeState creates routing state drawing randomness from rng (which the
// state takes ownership of; it must not be shared with other consumers).
func NewNodeState(rng *stats.RNG) *NodeState {
	return &NodeState{rng: rng, nbrs: make(map[int]*neighborState)}
}

func (ns *NodeState) slot(id int) *neighborState {
	st := ns.nbrs[id]
	if st == nil {
		st = &neighborState{}
		ns.nbrs[id] = st
	}
	return st
}

// SetSummary replaces the advertised term set of neighbor id. An explicit
// empty set (non-nil, zero terms) means "nothing reachable" and prunes every
// term-bearing query; before the first SetSummary a neighbor matches
// everything.
func (ns *NodeState) SetSummary(id int, terms []string) {
	if len(terms) > MaxSummaryTerms {
		sorted := append([]string(nil), terms...)
		sort.Strings(sorted)
		terms = sorted[:MaxSummaryTerms]
	}
	set := make(map[string]struct{}, len(terms))
	for _, t := range terms {
		set[t] = struct{}{}
	}
	ns.mu.Lock()
	ns.slot(id).summary = set
	ns.mu.Unlock()
}

// SummaryTerms returns the number of terms neighbor id currently advertises,
// or -1 if it has not advertised a summary.
func (ns *NodeState) SummaryTerms(id int) int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	st := ns.nbrs[id]
	if st == nil || st.summary == nil {
		return -1
	}
	return len(st.summary)
}

// SummaryTermList returns a copy of the terms neighbor id advertises
// (unsorted), or nil if it has not advertised a summary. Hosts use it to
// aggregate received summaries into the adverts they send onward.
func (ns *NodeState) SummaryTermList(id int) []string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	st := ns.nbrs[id]
	if st == nil || st.summary == nil {
		return nil
	}
	out := make([]string, 0, len(st.summary))
	for t := range st.summary {
		out = append(out, t)
	}
	return out
}

// DropNeighbor forgets all state about neighbor id (overlay link closed).
func (ns *NodeState) DropNeighbor(id int) {
	ns.mu.Lock()
	delete(ns.nbrs, id)
	ns.mu.Unlock()
}

// RecordForward notes that a query with the given terms was forwarded to
// neighbor id — the learned strategy's trial counter.
func (ns *NodeState) RecordForward(id int, terms []string) {
	if len(terms) == 0 {
		return
	}
	ns.mu.Lock()
	st := ns.slot(id)
	if st.forwards == nil {
		st.forwards = make(map[string]float64)
	}
	for _, t := range terms {
		if _, known := st.forwards[t]; !known && len(st.forwards) >= MaxLearnedTerms {
			continue // history full: keep counting known terms only
		}
		st.forwards[t]++
	}
	ns.mu.Unlock()
}

// RecordHit notes that a response for a query with the given terms came back
// through neighbor id — the learned strategy's success counter.
func (ns *NodeState) RecordHit(id int, terms []string) {
	if len(terms) == 0 {
		return
	}
	ns.mu.Lock()
	st := ns.slot(id)
	if st.hits == nil {
		st.hits = make(map[string]float64)
	}
	for _, t := range terms {
		if _, known := st.hits[t]; !known && len(st.hits) >= MaxLearnedTerms {
			continue // history full: keep counting known terms only
		}
		st.hits[t]++
	}
	ns.mu.Unlock()
}
