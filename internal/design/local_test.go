package design

import (
	"fmt"
	"testing"

	"spnet/internal/analysis"
)

func limit() analysis.Load { return analysis.Load{InBps: 1000, OutBps: 1000, ProcHz: 1e6} }

func TestAdviseRuleIAcceptByDefault(t *testing.T) {
	s := LocalState{
		Load: analysis.Load{InBps: 400, OutBps: 300, ProcHz: 1e5}, Limit: limit(),
		Clients: 10, Outdegree: 4, TTL: 7,
	}
	adv := Advise(s, Thresholds{})
	if !adv.AcceptClients {
		t.Error("rule I: should accept clients at moderate load")
	}
	if adv.Action != Hold {
		t.Errorf("no shedding expected: %+v", adv)
	}
	if adv.NewTTL != 7 {
		t.Errorf("TTL changed to %d without evidence", adv.NewTTL)
	}
}

func TestAdviseOverloadShedsLoad(t *testing.T) {
	s := LocalState{
		Load: analysis.Load{InBps: 1500}, Limit: limit(),
		Partners: 1, Clients: 20, Outdegree: 4, TTL: 7,
	}
	adv := Advise(s, Thresholds{})
	if adv.AcceptClients {
		t.Error("overloaded super-peer should stop accepting")
	}
	if adv.Action != Promote {
		t.Errorf("overload with one partner should promote another: %+v", adv)
	}
	if adv.AddNeighbor {
		t.Error("overloaded super-peer should not add neighbors")
	}
	s.Partners = 2
	if adv := Advise(s, Thresholds{}); adv.Action != Split {
		t.Errorf("overload with two partners should split: %+v", adv)
	}
}

func TestAdviseOverloadedLonerResigns(t *testing.T) {
	s := LocalState{
		Load: analysis.Load{ProcHz: 2e6}, Limit: limit(),
		Clients: 0, Outdegree: 1, TTL: 7,
	}
	adv := Advise(s, Thresholds{})
	if adv.Action != Resign {
		t.Error("an overloaded super-peer with no clients and one neighbor should resign")
	}
}

func TestAdviseUnderloadCoalesces(t *testing.T) {
	s := LocalState{
		Load: analysis.Load{InBps: 50, OutBps: 40, ProcHz: 1e4}, Limit: limit(),
		Clients: 2, Outdegree: 3, TTL: 7,
	}
	adv := Advise(s, Thresholds{})
	if adv.Action != Coalesce {
		t.Error("far-underloaded cluster should seek a merge")
	}
	if !adv.AcceptClients {
		t.Error("underloaded super-peer must still accept clients")
	}
}

func TestAdviseRuleIIAddNeighbor(t *testing.T) {
	base := LocalState{
		Load: analysis.Load{InBps: 300}, Limit: limit(),
		Clients: 10, Outdegree: 3, TTL: 7,
	}
	if adv := Advise(base, Thresholds{}); !adv.AddNeighbor {
		t.Error("spare resources and stable cluster: should add a neighbor")
	}
	growing := base
	growing.ClusterGrowing = true
	if adv := Advise(growing, Thresholds{}); adv.AddNeighbor {
		t.Error("growing cluster: should not add neighbors yet")
	}
	busy := base
	busy.Load = analysis.Load{InBps: 900}
	if adv := Advise(busy, Thresholds{}); adv.AddNeighbor {
		t.Error("near the limit: should not add neighbors")
	}
}

func TestAdviseAppendixEDropUselessNeighbor(t *testing.T) {
	s := LocalState{
		Load: analysis.Load{InBps: 100}, Limit: limit(),
		Clients: 5, Outdegree: 8, TTL: 3,
		ProbedNeighbor: true, GainedResultsAfterNeighbor: false,
	}
	adv := Advise(s, Thresholds{})
	if !adv.DropProbedNeighbor {
		t.Error("a probed neighbor that brought no results should be dropped")
	}
	if adv.AddNeighbor {
		t.Error("should not add while dropping a useless neighbor")
	}
	s.GainedResultsAfterNeighbor = true
	adv = Advise(s, Thresholds{})
	if adv.DropProbedNeighbor {
		t.Error("a useful probed neighbor should be kept")
	}
}

func TestAdviseRuleIIIDecreaseTTL(t *testing.T) {
	s := LocalState{
		Load: analysis.Load{InBps: 100}, Limit: limit(),
		Clients: 5, Outdegree: 5, TTL: 7, MaxRespHops: 3,
	}
	adv := Advise(s, Thresholds{})
	if adv.NewTTL != 3 {
		t.Errorf("NewTTL = %d, want 3 (no responses beyond 3 hops)", adv.NewTTL)
	}
	s.MaxRespHops = 7
	if adv := Advise(s, Thresholds{}); adv.NewTTL != 7 {
		t.Errorf("NewTTL = %d, want unchanged 7", adv.NewTTL)
	}
	s.MaxRespHops = 0 // unknown
	if adv := Advise(s, Thresholds{}); adv.NewTTL != 7 {
		t.Errorf("NewTTL = %d, want unchanged when unobserved", adv.NewTTL)
	}
}

// at is an observation at utilization u of limit(), with no own queries.
func at(u float64) Obs {
	return Obs{Load: analysis.Load{InBps: 1000 * u}, Limit: limit(), Partners: 1, Clients: 10, Outdegree: 4, TTL: 7}
}

func TestLocalStepRuleIHysteresis(t *testing.T) {
	// Each step is O (overload), U (underload), N (normal load) or M (no
	// fresh observation); each action is - (hold), P, S or C.
	obs := map[byte]Obs{'O': at(1.5), 'U': at(0.1), 'N': at(0.5)}
	for _, tc := range []struct {
		name, steps, want string
		partners          int
	}{
		{"a one-step blip holds", "ONO", "---", 1},
		{"two consecutive steps act", "OO", "-P", 1},
		{"split once redundant", "OO", "-S", 2},
		{"underload coalesces", "UU", "-C", 1},
		{"the cooldown lasts three steps", "OOOOOOO", "-P----P", 1},
		{"a miss breaks a run", "OMOO", "---P", 1},
		{"a miss does not shorten a cooldown", "OOMMMOOOOO", "-P-------P", 1},
		{"an over run then an under run starts over", "OUUOO", "--C--", 1},
	} {
		var l Local
		got := ""
		for i := range tc.steps {
			if tc.steps[i] == 'M' {
				l.Miss()
				got += "-"
				continue
			}
			o := obs[tc.steps[i]]
			o.Partners = tc.partners
			got += string("-PSCR"[l.Step(o).Action])
		}
		if got != tc.want {
			t.Errorf("%s: %s acted %s, want %s", tc.name, tc.steps, got, tc.want)
		}
	}
}

func TestLocalStepAcceptsWithoutHysteresis(t *testing.T) {
	var l Local
	if l.Step(at(1.5)).AcceptClients {
		t.Error("the first overloaded step should stop accepting clients")
	}
	if !l.Step(at(0.5)).AcceptClients {
		t.Error("the first step back under the limit should accept clients")
	}
}

func TestLocalStepRuleIIIHorizon(t *testing.T) {
	// Ten own queries a step, responses from no farther than 3 hops: the
	// TTL holds until 30 queries are in, then falls one hop per window of
	// 30 toward 3.
	var l Local
	ttl, got := 7, []int{}
	for i := 0; i < 12; i++ {
		o := at(0.5)
		o.TTL, o.Queries, o.MaxRespHops = ttl, 10, 3
		ttl = l.Step(o).NewTTL
		got = append(got, ttl)
	}
	want := []int{7, 7, 6, 6, 6, 5, 5, 5, 4, 4, 4, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("TTL by step = %v, want %v", got, want)
	}
}

func TestLocalStepAppendixEProbe(t *testing.T) {
	// A neighbor is added after a window of 10 results per query; it is
	// judged once 20 queries are in and kept only on a gain over 2%.
	for _, tc := range []struct {
		results int // over the probe's second window of ten queries
		drop    bool
	}{
		{103, false}, // 205 results / 20 queries = 10.25 > 10.2
		{102, true},  // 204 / 20 = 10.2, no more than 2%
	} {
		var l Local
		o := at(0.5)
		o.Queries, o.Results = 10, 100
		l.Settle(o.Clients, false)
		if !l.Step(o).AddNeighbor {
			t.Fatal("spare resources: should add a neighbor")
		}
		l.Settle(o.Clients, true)
		o.Results = 102
		if adv := l.Step(o); adv.AddNeighbor || adv.DropProbedNeighbor {
			t.Fatalf("10 queries into the probe: %+v, want it still waiting", adv)
		}
		o.Results = tc.results
		adv := l.Step(o)
		if adv.DropProbedNeighbor != tc.drop {
			t.Errorf("%d results: drop = %v, want %v", tc.results, adv.DropProbedNeighbor, tc.drop)
		}
		if adv.AddNeighbor == tc.drop {
			t.Errorf("%d results: add = %v after the probe ended", tc.results, adv.AddNeighbor)
		}
	}
}

func TestLocalStepGrowthFromSettledSize(t *testing.T) {
	// Rule II compares with the size the layer settled at after acting, not
	// the size it observed before.
	var l Local
	l.Step(at(0.5))
	l.Settle(6, false) // the layer's action moved four clients away
	o := at(0.5)
	o.Clients = 8
	if l.Step(o).AddNeighbor {
		t.Error("the cluster grew from 6 to 8 since the last action: rule II should wait")
	}
}
