package experiments

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"spnet/internal/network"
	"spnet/internal/routing"
	"spnet/internal/sim"
	"spnet/internal/topology"
)

// floodScenario is a one-partner, one-topic flood over g: the smallest
// scenario every arm prices without a strategy or an adversary.
func floodScenario(g topology.Graph, ttl int) Scenario {
	return Scenario{
		Planted: network.Planted{
			Graph:     g,
			Partners:  1,
			Clients:   2,
			Topics:    1,
			QueryRate: 0.05,
			QueryLen:  len(routingTopic(0)),
			TTL:       ttl,
		},
		SimDuration: 400,
		Live:        LiveLoad{Duration: 60, TimeScale: 120, Window: 60 * time.Millisecond},
		Seed:        7,
	}
}

// TestModelRefusesUnpricedNetworks: the content-aware forward model and the
// adversary's closed form hold only on a topic-partitioned star hubbed at
// cluster 0, so the model arm must refuse any other network instead of
// pricing it wrongly — and must still price the star they hold on.
func TestModelRefusesUnpricedNetworks(t *testing.T) {
	honest := &sim.AdversaryOptions{Malicious: func(cluster, slot int) bool { return false }}
	star, ring, clique := topology.Star(4), topology.Ring(5), topology.NewClique(5)
	for _, c := range []struct {
		g         topology.Graph
		topics    int
		strategy  string
		adversary *sim.AdversaryOptions
		ok        bool
	}{
		{star, 5, "routingindex", nil, true},
		{star, 5, "", honest, true},
		{ring, 5, "routingindex", nil, false},
		{clique, 5, "learned", nil, false},
		{ring, 5, "", honest, false},
		{star, 1, "", honest, false},
		{star, 1, "learned", nil, false},
	} {
		s := floodScenario(c.g, 2)
		s.Planted.Topics, s.Strategy, s.Adversary = c.topics, c.strategy, c.adversary
		inst, err := network.NewPlanted(s.Planted)
		if err != nil {
			t.Fatal(err)
		}
		var strat routing.Strategy
		if c.strategy != "" {
			if strat, err = routing.Parse(c.strategy); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.model(inst, strat); (err == nil) != c.ok {
			t.Errorf("%d nodes, %d topics, strategy %q, adversary %v: model error %v, want ok=%v",
				c.g.N(), c.topics, c.strategy, c.adversary != nil, err, c.ok)
		}
	}
}

// TestThreeWayFloodForwardsAgree checks the flood's copy count across the
// layers through the one entry point. Rings and cliques are
// vertex-transitive, so every query forwards the same integer number of
// copies from every source: the model's expectation and the simulator's
// per-query ratio must both be that integer, and so must the live fleet's
// on a 4-ring at TTL 2.
func TestThreeWayFloodForwardsAgree(t *testing.T) {
	type graph struct {
		name string
		g    topology.Graph
	}
	var graphs []graph
	for n := 3; n <= 6; n++ {
		graphs = append(graphs, graph{fmt.Sprintf("ring%d", n), topology.Ring(n)})
	}
	for n := 3; n <= 5; n++ {
		graphs = append(graphs, graph{fmt.Sprintf("clique%d", n), topology.NewClique(n)})
	}
	for _, gc := range graphs {
		for ttl := 1; ttl <= 3; ttl++ {
			s := floodScenario(gc.g, ttl)
			inst, err := network.NewPlanted(s.Planted)
			if err != nil {
				t.Fatal(err)
			}
			model, _, err := s.model(inst, nil)
			if err != nil {
				t.Fatal(err)
			}
			m, err := s.simulate(inst, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := model.QueryForwardsPerQuery
			if got := ratio(m.QueriesForwarded, m.QueriesIssued); relErr(got, want) > 1e-9 {
				t.Errorf("%s ttl %d: sim forwards %d copies over %d queries = %.17g per query, model %.17g",
					gc.name, ttl, m.QueriesForwarded, m.QueriesIssued, got, want)
			}
		}
	}

	if testing.Short() {
		t.Skip("the live case boots a fleet")
	}
	leakCheck(t)
	tw, err := runThreeWay(floodScenario(topology.Ring(4), 2))
	if err != nil {
		t.Fatal(err)
	}
	// Two copies from the source, one onward from each neighbor.
	const want = 4
	if math.Abs(tw.Model.QueryForwardsPerQuery-want) > 1e-9 {
		t.Fatalf("model forwards %.17g copies per query on the 4-ring, want %d", tw.Model.QueryForwardsPerQuery, want)
	}
	queries := tw.Live.Queries
	if queries == 0 {
		t.Fatal("live arm issued no queries")
	}
	if tw.Live.Forwarded != int64(want*queries) {
		t.Errorf("live fleet forwarded %d copies for %d queries, want exactly %d per query",
			tw.Live.Forwarded, queries, want)
	}
}

// TestThreeWayKillsAgree holds the simulator and the live fleet to the same
// kills of one drawn schedule at k = 1, 2 and 3. In both arms a kill takes
// its slot down unless it is down already, when the kill is dropped, and the
// slot comes back RecoveryDelay after its own failure. So the simulator's
// FailuresInjected must equal the live arm's executed kills exactly. Every
// event falls in the window's first three quarters, so every kill and its
// restart play out inside it.
func TestThreeWayKillsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("boots fleets")
	}
	leakCheck(t)
	const window = 240
	// Each seed's schedule drops an event. At k = 2 seed 8 also kills a slot
	// while its co-partner is down, darkening the cluster.
	for _, c := range []struct {
		k    int
		seed uint64
	}{{1, 7}, {2, 8}, {3, 7}} {
		s := floodScenario(topology.Ring(3), 2)
		s.Planted.Partners = c.k
		s.SimDuration = window
		s.Live.Duration, s.Live.TimeScale = window, 240
		s.Failures = &sim.FailureOptions{
			Schedule:      sim.ExponentialSchedule(c.seed, 3, c.k, 60, 0.75*window),
			RecoveryDelay: 20,
		}
		if c.k == 2 && !killsBesideDownSlot(s.Failures) {
			t.Fatal("k = 2: no kill lands while its co-partner is down")
		}
		tw, err := runThreeWay(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(tw.Live.Kills) == 0 || len(tw.Live.Kills) == len(s.Failures.Schedule) {
			t.Fatalf("k = %d: %d of %d scheduled kills executed live: the schedule no longer exercises dropped events",
				c.k, len(tw.Live.Kills), len(s.Failures.Schedule))
		}
		if tw.Sim.FailuresInjected != len(tw.Live.Kills) {
			t.Errorf("k = %d: simulator injected %d failures, live fleet executed %d kills of the same %d-event schedule",
				c.k, tw.Sim.FailuresInjected, len(tw.Live.Kills), len(s.Failures.Schedule))
		}
	}
}

// killsBesideDownSlot reports whether a kill of f's schedule that finds its
// slot up lands while another slot of the same cluster is down.
func killsBesideDownSlot(f *sim.FailureOptions) bool {
	up := map[[2]int]float64{} // slot → when it is back up
	for _, ev := range f.Schedule.Sorted() {
		slot := [2]int{ev.Cluster, ev.Partner}
		if ev.At < up[slot] {
			continue
		}
		for other, back := range up {
			if other[0] == ev.Cluster && other != slot && ev.At < back {
				return true
			}
		}
		up[slot] = ev.At + f.RecoveryDelay
	}
	return false
}

// TestTimelineRestartsOnlyTakenKills: a kill that lands on a slot still down
// is dropped with no restart of its own, so it cannot cut short the slot's
// next outage.
func TestTimelineRestartsOnlyTakenKills(t *testing.T) {
	s := Scenario{
		Failures: &sim.FailureOptions{RecoveryDelay: 20, Schedule: sim.Schedule{
			{At: 10}, {At: 15}, {At: 33}, // 15 lands while slot 0 is down
		}},
		Live: LiveLoad{Duration: 100},
	}
	want := []fault{{at: 10}, {at: 30, restart: true}, {at: 33}, {at: 53, restart: true}}
	if got := s.timeline(); !slices.Equal(got, want) {
		t.Errorf("timeline = %+v, want %+v", got, want)
	}
}
