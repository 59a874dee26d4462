package analysis

import (
	"slices"
	"sync"
	"testing"

	"spnet/internal/network"
	"spnet/internal/routing"
	"spnet/internal/topology"
)

// TestEvaluateAllocationBound: an evaluation allocates its Result and the
// per-cluster working arrays, nothing per edge, per source or per BFS — on
// the flood path, under a forwarding model, with dishonest relays, and over
// an implicit Clique read through the same Graph.Neighbors call as any other
// graph. (A scratch the pool dropped costs seven more objects, well inside
// the bound.)
func TestEvaluateAllocationBound(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 10000 // 1000 clusters, ~3100 edges, 1000 sources
	powerLaw := generate(t, cfg, nil, 1)
	clique := generate(t, network.Config{GraphType: network.Strong, GraphSize: 2000, ClusterSize: 10, TTL: 2}, nil, 1)
	fw := routing.NewRandomWalk(2).Forwards()

	cases := []struct {
		name string
		inst *network.Instance
		opts Options
	}{
		{"flood", powerLaw, Options{}},
		{"forwards", powerLaw, Options{Forwards: fw}},
		{"relay drop", powerLaw, Options{RelayDrop: 0.3}},
		{"forwards over a clique", clique, Options{Forwards: fw}},
	}
	for _, c := range cases {
		// AllocsPerRun's own warm-up call sizes the pooled scratch.
		if got := testing.AllocsPerRun(2, func() { EvaluateWith(c.inst, c.opts) }); got >= 100 {
			t.Errorf("%s: %v allocations per evaluation, want < 100", c.name, got)
		}
	}
}

// TestImplicitCliqueMatchesExplicitThroughGenericEngine: the generic engine
// reads a Clique's neighbors into its scratch buffer and an explicit complete
// graph's from the graph's own storage; both list every other node
// ascending, so the two evaluations must agree to the bit.
func TestImplicitCliqueMatchesExplicitThroughGenericEngine(t *testing.T) {
	inst := generate(t, network.Config{GraphType: network.Strong, GraphSize: 300, ClusterSize: 10, TTL: 2}, nil, 4)
	n := inst.Graph.N()
	implicitInst, explicitInst := *inst, *inst
	implicitInst.Graph = noClique{topology.NewClique(n)}
	explicitInst.Graph = noClique{completeGraph(t, n)}
	for _, opts := range []Options{{}, {Forwards: routing.NewRandomWalk(3).Forwards(), RelayDrop: 0.25}} {
		a, b := EvaluateWith(&implicitInst, opts), EvaluateWith(&explicitInst, opts)
		if a.AggregateLoad() != b.AggregateLoad() || a.ResultsPerQuery != b.ResultsPerQuery || a.EPL != b.EPL ||
			a.QueryForwardsPerQuery != b.QueryForwardsPerQuery {
			t.Errorf("opts %+v: implicit %+v / %v, explicit %+v / %v", opts,
				a.AggregateLoad(), a.ResultsPerQuery, b.AggregateLoad(), b.ResultsPerQuery)
		}
	}
}

// TestScratchSharedAcrossGraphKinds: pooled scratches pass between
// evaluations of explicit graphs (whose Neighbors result aliases graph
// storage) and implicit ones (which write into the scratch buffer). Results
// must not depend on what the scratch served before, serially or on
// concurrent workers, and no evaluation may write into a graph.
func TestScratchSharedAcrossGraphKinds(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 1500
	powerLaw := generate(t, cfg, nil, 2)
	clique := generate(t, network.Config{GraphType: network.Strong, GraphSize: 400, ClusterSize: 10, TTL: 2}, nil, 2)
	cliqueOpts := Options{Forwards: routing.NewRandomWalk(2).Forwards()}

	adj := powerLaw.Graph.(*topology.AdjGraph)
	var before [][]int32
	for v := 0; v < adj.N(); v++ {
		before = append(before, slices.Clone(adj.Neighbors(v, nil)))
	}

	wantPL, wantClique := Evaluate(powerLaw).AggregateLoad(), EvaluateWith(clique, cliqueOpts).AggregateLoad()
	check := func() {
		if got := EvaluateWith(clique, cliqueOpts).AggregateLoad(); got != wantClique {
			t.Errorf("clique evaluation changed: %+v, want %+v", got, wantClique)
		}
		if got := Evaluate(powerLaw).AggregateLoad(); got != wantPL {
			t.Errorf("power-law evaluation changed: %+v, want %+v", got, wantPL)
		}
	}
	check()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check()
		}()
	}
	wg.Wait()

	for v := 0; v < adj.N(); v++ {
		if got := adj.Neighbors(v, nil); !slices.Equal(got, before[v]) {
			t.Fatalf("node %d: adjacency overwritten: %v, was %v", v, got, before[v])
		}
	}
}
