package sim

import (
	"fmt"
	"testing"

	"spnet/internal/network"
	"spnet/internal/routing"
	"spnet/internal/stats"
	"spnet/internal/topology"
)

// plantedTopics builds the fixed instances the strategy and adversary tests
// run on: `partners` fileless super-peers and `clients` one-file clients per
// cluster of g, no churn. With topic-partitioned content (every cluster c's
// files titled "topic<c>", queries for a uniform topic) ground truth is
// exact: each query has `clients` matching files, all in one cluster.
func plantedTopics(t *testing.T, g topology.Graph, partners, clients, ttl int) *network.Instance {
	t.Helper()
	inst, err := network.NewPlanted(network.Planted{
		Graph: g, Partners: partners, Clients: clients, Topics: g.N(),
		QueryRate: 0.05, QueryLen: 6, TTL: ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// runStarStrategy simulates one strategy over a hub with 4 leaf super-peers
// at TTL 2 (a flood reaches every cluster) and returns the measurement.
func runStarStrategy(t *testing.T, strat routing.Strategy, seed uint64) *Measured {
	t.Helper()
	const leaves, clients = 4, 3
	inst := plantedTopics(t, topology.Star(leaves), 1, clients, 2)
	m, err := Run(inst, Options{
		Duration: 1500,
		Seed:     seed,
		Routing:  strat,
		Content: &ContentOptions{
			Titles: func(cluster, owner, file int) []string {
				return []string{fmt.Sprintf("topic%d", cluster)}
			},
			Queries: func(rng *stats.RNG) []string {
				return []string{fmt.Sprintf("topic%d", rng.Intn(leaves+1))}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesIssued == 0 {
		t.Fatal("no queries issued")
	}
	return m
}

func fwdPerQuery(m *Measured) float64 {
	return float64(m.QueriesForwarded) / float64(m.QueriesIssued)
}

func TestRoutingStrategiesOnStar(t *testing.T) {
	flood := runStarStrategy(t, nil, 9)
	if flood.Strategy != "flood" {
		t.Errorf("nil routing recorded strategy %q, want flood", flood.Strategy)
	}
	// Every query floods the whole star at TTL 2: 4 copies exactly (1+3 from
	// a leaf, 4 from the hub), and finds all 3 planted matches.
	if got := fwdPerQuery(flood); got != 4 {
		t.Errorf("flood forwards/query = %g, want exactly 4", got)
	}
	if flood.ResultsPerQuery != 3 {
		t.Errorf("flood results/query = %g, want exactly 3", flood.ResultsPerQuery)
	}

	ri := runStarStrategy(t, routing.NewRoutingIndex(), 9)
	// Conservative summaries never prune a matching branch: recall identical
	// to flood, bandwidth well under half of it (closed form: 1.28 vs 4).
	if ri.ResultsPerQuery != flood.ResultsPerQuery {
		t.Errorf("routingindex results/query = %g, want flood's %g",
			ri.ResultsPerQuery, flood.ResultsPerQuery)
	}
	if got := fwdPerQuery(ri); got >= 0.6*fwdPerQuery(flood) {
		t.Errorf("routingindex forwards/query = %g, want < 60%% of flood's %g",
			got, fwdPerQuery(flood))
	}

	rw := runStarStrategy(t, routing.NewRandomWalk(2), 9)
	// Two walkers cap the source fan-out: strictly cheaper than flood,
	// strictly lossy on a star where only one branch holds the answer.
	if got := fwdPerQuery(rw); got >= fwdPerQuery(flood) || got <= 0 {
		t.Errorf("randomwalk forwards/query = %g, want in (0, %g)", got, fwdPerQuery(flood))
	}
	if rw.ResultsPerQuery >= flood.ResultsPerQuery {
		t.Errorf("randomwalk results/query = %g, want < flood's %g",
			rw.ResultsPerQuery, flood.ResultsPerQuery)
	}

	ln := runStarStrategy(t, routing.NewLearned(), 9)
	// Hit history prunes barren branches over the run; the productive ones
	// keep producing, so recall stays near flood's.
	if got := fwdPerQuery(ln); got >= 0.8*fwdPerQuery(flood) {
		t.Errorf("learned forwards/query = %g, want < 80%% of flood's %g",
			got, fwdPerQuery(flood))
	}
	if ln.ResultsPerQuery < 0.9*flood.ResultsPerQuery {
		t.Errorf("learned results/query = %g, want >= 90%% of flood's %g",
			ln.ResultsPerQuery, flood.ResultsPerQuery)
	}
}

func TestRoutingStrategyDeterministic(t *testing.T) {
	for _, mk := range []func() routing.Strategy{
		func() routing.Strategy { return routing.NewRandomWalk(2) },
		func() routing.Strategy { return routing.NewLearned() },
	} {
		a, b := runStarStrategy(t, mk(), 21), runStarStrategy(t, mk(), 21)
		if a.QueriesForwarded != b.QueriesForwarded ||
			a.ResultsPerQuery != b.ResultsPerQuery ||
			a.EventsExecuted != b.EventsExecuted {
			t.Errorf("%s: same seed diverged: forwards %d vs %d, results %g vs %g, events %d vs %d",
				a.Strategy, a.QueriesForwarded, b.QueriesForwarded,
				a.ResultsPerQuery, b.ResultsPerQuery, a.EventsExecuted, b.EventsExecuted)
		}
	}
}
