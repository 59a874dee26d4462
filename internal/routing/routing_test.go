package routing

import (
	"fmt"
	"reflect"
	"testing"

	"spnet/internal/stats"
)

// hasTerm reports whether neighbor id's summary contains term (test helper).
func (ns *NodeState) hasTerm(id int, term string) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	st := ns.nbrs[id]
	if st == nil || st.summary == nil {
		return false
	}
	_, ok := st.summary[term]
	return ok
}

func cands(ids ...int) []Candidate {
	out := make([]Candidate, len(ids))
	for i, id := range ids {
		out[i] = Candidate{ID: id}
	}
	return out
}

func TestFloodSelectsAllInOrder(t *testing.T) {
	s := NewFlood()
	got := s.Select(nil, Query{TTL: 3}, cands(7, 3, 9), nil)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("flood Select = %v, want %v", got, want)
	}
	if got := s.Select(nil, Query{}, nil, nil); len(got) != 0 {
		t.Fatalf("flood Select on empty candidates = %v, want empty", got)
	}
}

func TestRandomWalkCounts(t *testing.T) {
	ns := NewNodeState(stats.NewRNG(1))
	s := NewRandomWalk(2)
	// Source: k distinct picks.
	got := s.Select(nil, Query{Hops: 0, TTL: 4}, cands(0, 1, 2, 3, 4), ns)
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("source Select = %v, want 2 distinct indices", got)
	}
	for _, i := range got {
		if i < 0 || i >= 5 {
			t.Fatalf("source Select index %d out of range", i)
		}
	}
	// Relay: one pick regardless of k.
	if got := s.Select(nil, Query{Hops: 2, TTL: 2}, cands(0, 1, 2), ns); len(got) != 1 {
		t.Fatalf("relay Select = %v, want 1 index", got)
	}
	// k >= n degrades to flood.
	if got := s.Select(nil, Query{Hops: 0}, cands(8, 9), ns); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("k>=n Select = %v, want [0 1]", got)
	}
}

func TestRandomWalkDeterministicPerSeed(t *testing.T) {
	q := Query{Hops: 0, TTL: 4}
	run := func() []int {
		ns := NewNodeState(stats.NewRNG(42))
		s := NewRandomWalk(3)
		var all []int
		for i := 0; i < 10; i++ {
			all = s.Select(all, q, cands(0, 1, 2, 3, 4, 5, 6), ns)
		}
		return all
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different selections:\n%v\n%v", a, b)
	}
}

func TestRoutingIndexMatching(t *testing.T) {
	ns := NewNodeState(stats.NewRNG(1))
	s := NewRoutingIndex()
	ns.SetSummary(10, []string{"jazz", "blues"})
	ns.SetSummary(11, []string{"rock"})
	// Neighbor 12 never advertises: conservative match.
	cs := cands(10, 11, 12)

	if got := s.Select(nil, Query{Terms: []string{"jazz"}}, cs, ns); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf(`Select "jazz" = %v, want [0 2]`, got)
	}
	// Conjunctive: all terms must be present.
	if got := s.Select(nil, Query{Terms: []string{"jazz", "rock"}}, cs, ns); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf(`Select "jazz rock" = %v, want [2]`, got)
	}
	// Term-less queries flood.
	if got := s.Select(nil, Query{}, cs, ns); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("Select term-less = %v, want [0 1 2]", got)
	}
	// Empty advertised set prunes.
	ns.SetSummary(12, nil)
	if got := s.Select(nil, Query{Terms: []string{"jazz"}}, cs, ns); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf(`Select "jazz" after empty summary = %v, want [0]`, got)
	}
	// DropNeighbor reverts to conservative.
	ns.DropNeighbor(12)
	if got := s.Select(nil, Query{Terms: []string{"jazz"}}, cs, ns); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf(`Select "jazz" after drop = %v, want [0 2]`, got)
	}
}

func TestLearnedPrunesAfterFruitlessForwards(t *testing.T) {
	ns := NewNodeState(stats.NewRNG(9))
	s := NewLearned()
	terms := []string{"jazz"}
	cs := cands(20, 21)

	// Fresh neighbors score 0.5 > threshold: everyone explored.
	if got := s.Select(nil, Query{Terms: terms}, cs, ns); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("fresh Select = %v, want [0 1]", got)
	}
	// Neighbor 20 produces hits, 21 never does.
	for i := 0; i < 8; i++ {
		ns.RecordForward(20, terms)
		ns.RecordHit(20, terms)
		ns.RecordForward(21, terms)
	}
	sel := 0
	for i := 0; i < 200; i++ {
		for _, idx := range s.Select(nil, Query{Terms: terms}, cs, ns) {
			if idx == 1 {
				sel++
			}
		}
	}
	// 21 survives only via the 5% exploration probability.
	if sel > 40 {
		t.Fatalf("pruned neighbor selected %d/200 times, want rare exploration only", sel)
	}
	// The productive neighbor is always selected.
	for i := 0; i < 20; i++ {
		got := s.Select(nil, Query{Terms: terms}, cs, ns)
		if len(got) == 0 || got[0] != 0 {
			t.Fatalf("productive neighbor dropped: Select = %v", got)
		}
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		spec string
		name string
	}{
		{"flood", "flood"},
		{"randomwalk", "randomwalk"},
		{"randomwalk:2", "randomwalk"},
		{"randomwalk:5", "randomwalk:5"},
		{"routingindex", "routingindex"},
		{"learned", "learned"},
	} {
		s, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		if s.Name() != tc.name {
			t.Fatalf("Parse(%q).Name() = %q, want %q", tc.spec, s.Name(), tc.name)
		}
	}
	for _, bad := range []string{"", "gossip", "randomwalk:0", "randomwalk:x", "flood:1", "learned:2"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestMarkers(t *testing.T) {
	if !UsesSummaries(NewRoutingIndex()) || UsesSummaries(NewFlood()) ||
		UsesSummaries(NewRandomWalk(2)) || UsesSummaries(NewLearned()) {
		t.Fatal("UsesSummaries should mark routingindex only")
	}
	if !Learns(NewLearned()) || Learns(NewFlood()) ||
		Learns(NewRandomWalk(2)) || Learns(NewRoutingIndex()) {
		t.Fatal("Learns should mark learned only")
	}
}

func TestForwardsModels(t *testing.T) {
	fw := NewRandomWalk(3).Forwards()
	if got := fw.Source(5); got != 3 {
		t.Fatalf("randomwalk Source(5) = %g, want 3", got)
	}
	if got := fw.Source(2); got != 2 {
		t.Fatalf("randomwalk Source(2) = %g, want 2", got)
	}
	if got := fw.Relay(4); got != 1 {
		t.Fatalf("randomwalk Relay(4) = %g, want 1", got)
	}
	if got := fw.Relay(0); got != 0 {
		t.Fatalf("randomwalk Relay(0) = %g, want 0", got)
	}
	cf := ConstForwards("routingindex", 0.8, 0.75)
	if got := cf.Source(4); got != 0.8 {
		t.Fatalf("const Source(4) = %g, want 0.8", got)
	}
	if got := cf.Relay(0); got != 0 {
		t.Fatalf("const Relay(0) = %g, want 0", got)
	}
}

func TestLearnedHistoryBounded(t *testing.T) {
	ns := NewNodeState(stats.NewRNG(1))
	for i := 0; i < MaxLearnedTerms+100; i++ {
		term := fmt.Sprintf("t%05d", i)
		ns.RecordForward(1, []string{term})
		ns.RecordHit(1, []string{term})
	}
	ns.mu.Lock()
	st := ns.nbrs[1]
	nf, nh := len(st.forwards), len(st.hits)
	ns.mu.Unlock()
	if nf != MaxLearnedTerms || nh != MaxLearnedTerms {
		t.Fatalf("history sizes = %d forwards, %d hits; want frozen at %d", nf, nh, MaxLearnedTerms)
	}
	// Known terms keep counting past the cap.
	ns.RecordForward(1, []string{"t00000"})
	ns.mu.Lock()
	count := ns.nbrs[1].forwards["t00000"]
	ns.mu.Unlock()
	if count != 2 {
		t.Fatalf("known-term forward count = %v, want 2", count)
	}
}

func TestSummaryBounded(t *testing.T) {
	ns := NewNodeState(stats.NewRNG(1))
	terms := make([]string, MaxSummaryTerms+50)
	for i := range terms {
		terms[i] = fmt.Sprintf("s%06d", i)
	}
	ns.SetSummary(3, terms)
	if got := ns.SummaryTerms(3); got != MaxSummaryTerms {
		t.Fatalf("summary size = %d, want truncated to %d", got, MaxSummaryTerms)
	}
	// Deterministic truncation: lexicographically smallest terms survive.
	if !ns.hasTerm(3, "s000000") {
		t.Fatalf("smallest term should survive truncation")
	}
	if ns.hasTerm(3, fmt.Sprintf("s%06d", MaxSummaryTerms+10)) {
		t.Fatalf("largest terms should be truncated")
	}
}
