package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"spnet/internal/cost"
	"spnet/internal/network"
	"spnet/internal/stats"
	"spnet/internal/topology"
	"spnet/internal/workload"
)

func generate(t *testing.T, cfg network.Config, prof *workload.Profile, seed uint64) *network.Instance {
	t.Helper()
	inst, err := network.Generate(cfg, prof, stats.NewRNG(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return inst
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestTwoClusterHandComputed verifies every term of the cost accounting on a
// two-super-peer network small enough to compute by hand.
func TestTwoClusterHandComputed(t *testing.T) {
	prof := workload.DefaultProfile()
	cfg := network.Config{
		GraphType:    network.Strong,
		GraphSize:    2,
		ClusterSize:  1,
		AvgOutdegree: 1,
		TTL:          1,
	}
	inst := generate(t, cfg, prof, 1)
	if len(inst.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(inst.Clusters))
	}
	res := Evaluate(inst)

	q := prof.Rates.QueryRate
	u := prof.Rates.UpdateRate
	qm := prof.Queries
	qBytes := 94.0 // 82 + 12

	type side struct {
		files int
		life  float64
		p     float64 // ProbResp
		k     float64 // ExpAddrs
		n     float64 // ExpResults
	}
	mk := func(v int) side {
		cl := inst.Clusters[v]
		return side{
			files: cl.Partners[0].Files,
			life:  cl.Partners[0].Lifespan,
			p:     cl.ProbResp,
			k:     cl.ExpAddrs,
			n:     cl.ExpResults,
		}
	}
	a, b := mk(0), mk(1)
	respBytesOf := func(s side) float64 { return 80*s.p + 28*s.k + 76*s.n }

	// Node A expected load, by hand.
	inBytes := q * (qBytes + respBytesOf(b)) // B's query + B's response to A's query
	outBytes := q * (qBytes + respBytesOf(a))
	// Response messages only exist with probability ProbResp, so the
	// per-message base costs are scaled by p while the per-record terms use
	// the expected counts directly.
	proc := q*(cost.SendQueryBase+cost.SendQueryPerByte*12) + // send own query
		q*(cost.RecvQueryBase+cost.RecvQueryPerByte*12) + // receive B's query
		2*q*(cost.ProcessQueryBase+cost.ProcessQueryPerRe*a.n) + // process both queries
		q*(cost.RecvRespBase*b.p+cost.RecvRespPerAddr*b.k+cost.RecvRespPerResult*b.n) +
		q*(cost.SendRespBase*a.p+cost.SendRespPerAddr*a.k+cost.SendRespPerResult*a.n) +
		(1/a.life)*(cost.ProcessJoinBase+cost.ProcessJoinPerFile*float64(a.files)) +
		u*cost.ProcessUpdate
	msgs := q * (2 + a.p + b.p)                      // 1 query sent, 1 received, responses each way
	proc += msgs * cost.PacketMultiplexPerConn * 1.0 // 1 open connection

	got := res.SuperPeerLoad(0)
	if relDiff(got.InBps, inBytes*8) > 1e-9 {
		t.Errorf("InBps = %v, want %v", got.InBps, inBytes*8)
	}
	if relDiff(got.OutBps, outBytes*8) > 1e-9 {
		t.Errorf("OutBps = %v, want %v", got.OutBps, outBytes*8)
	}
	if relDiff(got.ProcHz, cost.UnitsToHz(proc)) > 1e-9 {
		t.Errorf("ProcHz = %v, want %v", got.ProcHz, cost.UnitsToHz(proc))
	}

	// Quality metrics.
	wantResults := qm.ExpectedResults(a.files + b.files)
	if relDiff(res.ResultsPerQuery, wantResults) > 1e-9 {
		t.Errorf("ResultsPerQuery = %v, want %v", res.ResultsPerQuery, wantResults)
	}
	if res.EPL != 1 {
		t.Errorf("EPL = %v, want 1", res.EPL)
	}
	if res.MeanReachClusters != 2 || res.MeanReachPeers != 2 {
		t.Errorf("reach = %v clusters / %v peers, want 2 / 2", res.MeanReachClusters, res.MeanReachPeers)
	}
}

// TestSingleClusterClientLeg verifies the client-super-peer interaction when
// the whole network is one cluster (the hybrid / central-server extreme).
func TestSingleClusterClientLeg(t *testing.T) {
	prof := workload.DefaultProfile()
	cfg := network.Config{
		GraphType:   network.Strong,
		GraphSize:   40,
		ClusterSize: 40,
		TTL:         1,
	}
	inst := generate(t, cfg, prof, 2)
	cl := inst.Clusters[0]
	nClients := len(cl.Clients)
	if nClients == 0 {
		t.Fatal("expected clients")
	}
	res := Evaluate(inst)

	q := prof.Rates.QueryRate
	respB := 80*cl.ProbResp + 28*cl.ExpAddrs + 76*cl.ExpResults

	// Super-peer incoming: each client's queries (94 B each) plus client
	// joins and updates.
	joinIn := 0.0
	for _, c := range cl.Clients {
		joinIn += (1 / c.Lifespan) * float64(80+72*c.Files)
	}
	updIn := prof.Rates.UpdateRate * float64(nClients) * 152
	wantIn := (q*float64(nClients)*94 + joinIn + updIn) * 8
	got := res.SuperPeerLoad(0)
	if relDiff(got.InBps, wantIn) > 1e-9 {
		t.Errorf("SP InBps = %v, want %v", got.InBps, wantIn)
	}
	// Super-peer outgoing: each client's queries answered with the local
	// results.
	wantOut := q * float64(nClients) * respB * 8
	if relDiff(got.OutBps, wantOut) > 1e-9 {
		t.Errorf("SP OutBps = %v, want %v", got.OutBps, wantOut)
	}

	// Client: submits queries, receives responses, joins, updates.
	c0 := cl.Clients[0]
	wantClientOut := (q*94 + (1/c0.Lifespan)*float64(80+72*c0.Files) + prof.Rates.UpdateRate*152) * 8
	gotClient := res.ClientLoad(0, 0)
	if relDiff(gotClient.OutBps, wantClientOut) > 1e-9 {
		t.Errorf("client OutBps = %v, want %v", gotClient.OutBps, wantClientOut)
	}
	if relDiff(gotClient.InBps, q*respB*8) > 1e-9 {
		t.Errorf("client InBps = %v, want %v", gotClient.InBps, q*respB*8)
	}

	// Results per query: everything in the one index.
	if relDiff(res.ResultsPerQuery, cl.ExpResults) > 1e-9 {
		t.Errorf("ResultsPerQuery = %v, want %v", res.ResultsPerQuery, cl.ExpResults)
	}
}

// noClique hides a graph's clique property, forcing the generic BFS engine.
type noClique struct{ topology.Graph }

func (noClique) IsClique() bool { return false }

// completeGraph returns the explicit complete graph on n nodes, edges (i, j)
// with i < j in lexicographic order, so every neighbor list is ascending.
func completeGraph(t *testing.T, n int) *topology.AdjGraph {
	t.Helper()
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	g, err := topology.NewAdjGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCliqueClosedFormMatchesGenericEngine cross-checks the two evaluation
// paths on the same instance, with and without redundant query copies.
func TestCliqueClosedFormMatchesGenericEngine(t *testing.T) {
	for _, ttl := range []int{1, 2, 4} {
		cfg := network.Config{
			GraphType:   network.Strong,
			GraphSize:   120,
			ClusterSize: 10,
			TTL:         ttl,
		}
		inst := generate(t, cfg, nil, 3)
		if !inst.Graph.IsClique() {
			t.Fatal("want clique")
		}
		fast := Evaluate(inst)

		// Same clusters, explicit complete graph, clique detection disabled.
		n := inst.Graph.N()
		slowInst := *inst
		slowInst.Graph = noClique{completeGraph(t, n)}
		slow := Evaluate(&slowInst)

		for v := 0; v < n; v++ {
			f, s := fast.SuperPeerLoad(v), slow.SuperPeerLoad(v)
			if relDiff(f.InBps, s.InBps) > 1e-9 || relDiff(f.OutBps, s.OutBps) > 1e-9 ||
				relDiff(f.ProcHz, s.ProcHz) > 1e-9 {
				t.Fatalf("ttl %d cluster %d: closed form %+v != generic %+v", ttl, v, f, s)
			}
		}
		if relDiff(fast.ResultsPerQuery, slow.ResultsPerQuery) > 1e-9 {
			t.Errorf("ttl %d: results %v vs %v", ttl, fast.ResultsPerQuery, slow.ResultsPerQuery)
		}
		if relDiff(fast.EPL, slow.EPL) > 1e-9 {
			t.Errorf("ttl %d: EPL %v vs %v", ttl, fast.EPL, slow.EPL)
		}
		af, as := fast.AggregateLoad(), slow.AggregateLoad()
		if relDiff(af.TotalBps(), as.TotalBps()) > 1e-9 {
			t.Errorf("ttl %d: aggregate %v vs %v", ttl, af, as)
		}
	}
}

// TestBandwidthConservation: every byte sent by some node is received by
// exactly one other node, so system-wide incoming and outgoing bandwidth
// must be identical.
func TestBandwidthConservation(t *testing.T) {
	cases := []network.Config{
		{GraphType: network.Strong, GraphSize: 200, ClusterSize: 10, TTL: 1},
		{GraphType: network.Strong, GraphSize: 200, ClusterSize: 10, TTL: 3},
		{GraphType: network.PowerLaw, GraphSize: 400, ClusterSize: 10, AvgOutdegree: 3.1, TTL: 7},
		{GraphType: network.PowerLaw, GraphSize: 400, ClusterSize: 8, AvgOutdegree: 3.1, TTL: 7, Redundancy: true},
		{GraphType: network.PowerLaw, GraphSize: 300, ClusterSize: 1, AvgOutdegree: 3.1, TTL: 5},
	}
	for _, cfg := range cases {
		inst := generate(t, cfg, nil, 4)
		res := Evaluate(inst)
		agg := res.AggregateLoad()
		if relDiff(agg.InBps, agg.OutBps) > 1e-9 {
			t.Errorf("%v: aggregate in %v != out %v", cfg, agg.InBps, agg.OutBps)
		}
	}
}

// TestAggregateIsSumOfIndividuals checks eq. 4 against explicit summation of
// AllNodeLoads.
func TestAggregateIsSumOfIndividuals(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 300, ClusterSize: 6,
		AvgOutdegree: 3.1, TTL: 4, Redundancy: true}
	inst := generate(t, cfg, nil, 5)
	res := Evaluate(inst)
	var sum Load
	for _, nl := range res.AllNodeLoads() {
		sum = sum.Add(nl.Load)
	}
	agg := res.AggregateLoad()
	if relDiff(sum.InBps, agg.InBps) > 1e-9 || relDiff(sum.OutBps, agg.OutBps) > 1e-9 ||
		relDiff(sum.ProcHz, agg.ProcHz) > 1e-9 {
		t.Errorf("sum of individuals %+v != aggregate %+v", sum, agg)
	}
	if len(res.AllNodeLoads()) != inst.NumPeers {
		t.Errorf("AllNodeLoads returned %d entries, want %d", len(res.AllNodeLoads()), inst.NumPeers)
	}
}

// TestLoadsNonNegative guards the accounting against sign errors.
func TestLoadsNonNegative(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 500
	inst := generate(t, cfg, nil, 6)
	res := Evaluate(inst)
	for _, nl := range res.AllNodeLoads() {
		if nl.Load.InBps < 0 || nl.Load.OutBps < 0 || nl.Load.ProcHz < 0 {
			t.Fatalf("negative load %+v at %+v", nl.Load, nl.ID)
		}
	}
	if res.ResultsPerQuery < 0 || res.EPL < 0 {
		t.Error("negative quality metrics")
	}
}

// TestResultsMatchSelectionPower: with full reach, results per query must be
// p̄ times the total file population (Appendix B).
func TestResultsMatchSelectionPower(t *testing.T) {
	prof := workload.DefaultProfile()
	cfg := network.Config{GraphType: network.Strong, GraphSize: 1000, ClusterSize: 20, TTL: 1}
	inst := generate(t, cfg, prof, 7)
	res := Evaluate(inst)
	want := prof.Queries.ExpectedResults(inst.TotalFiles())
	if relDiff(res.ResultsPerQuery, want) > 1e-9 {
		t.Errorf("ResultsPerQuery = %v, want %v", res.ResultsPerQuery, want)
	}
}

// TestTTLZeroIsLocalOnly: queries with TTL 0 never leave the source cluster.
func TestTTLZeroIsLocalOnly(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 200, ClusterSize: 10,
		AvgOutdegree: 3.1, TTL: 0}
	inst := generate(t, cfg, nil, 8)
	res := Evaluate(inst)
	if res.MeanReachClusters != 1 {
		t.Errorf("reach = %v clusters, want 1", res.MeanReachClusters)
	}
	// No inter-super-peer traffic: super-peer bandwidth is client-leg only;
	// with 9 clients/cluster it must be far below a flooded configuration.
	flooded := cfg
	flooded.TTL = 7
	res2 := Evaluate(generate(t, flooded, nil, 8))
	if res.MeanSuperPeerLoad().TotalBps() >= res2.MeanSuperPeerLoad().TotalBps() {
		t.Error("TTL 0 load not below TTL 7 load")
	}
}

// TestRedundantQueriesCostSomething: on a cycle-rich graph, raising TTL past
// full reach adds redundant-copy cost without adding results (rule #4).
func TestRedundantQueriesCostSomething(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 2000, ClusterSize: 10,
		AvgOutdegree: 20, TTL: 3}
	instA := generate(t, cfg, nil, 9)
	resA := Evaluate(instA)
	cfgB := cfg
	cfgB.TTL = 6
	instB := generate(t, cfgB, nil, 9) // same seed: identical topology and peers
	resB := Evaluate(instB)
	if resA.MeanReachClusters != float64(instA.Graph.N()) {
		t.Skipf("TTL 3 does not give full reach (%v of %d)", resA.MeanReachClusters, instA.Graph.N())
	}
	if relDiff(resA.ResultsPerQuery, resB.ResultsPerQuery) > 1e-9 {
		t.Errorf("results differ: %v vs %v", resA.ResultsPerQuery, resB.ResultsPerQuery)
	}
	aggA, aggB := resA.AggregateLoad(), resB.AggregateLoad()
	if aggB.InBps <= aggA.InBps {
		t.Errorf("TTL 6 aggregate in-bw %v not above TTL 3 %v", aggB.InBps, aggA.InBps)
	}
}

// TestEPLSaneOnPowerLaw: measured EPL should be near log_d(reach)
// (Appendix F) and response-weighted depth must stay within TTL.
func TestEPLSaneOnPowerLaw(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 10000, ClusterSize: 20,
		AvgOutdegree: 10, TTL: 7}
	inst := generate(t, cfg, nil, 10)
	res := Evaluate(inst)
	if res.EPL < 1 || res.EPL > 7 {
		t.Fatalf("EPL = %v outside [1, TTL]", res.EPL)
	}
	approx := topology.EPLApprox(10, inst.Graph.N())
	if math.Abs(res.EPL-approx) > 1.5 {
		t.Errorf("EPL %v far from log_d approximation %v", res.EPL, approx)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 400
	a := Evaluate(generate(t, cfg, nil, 11))
	b := Evaluate(generate(t, cfg, nil, 11))
	la, lb := a.AggregateLoad(), b.AggregateLoad()
	if la != lb {
		t.Errorf("same seed, different loads: %+v vs %+v", la, lb)
	}
}

// TestRandomConfigInvariantsProperty fuzzes configurations and checks the
// engine's conservation and sanity invariants on each.
func TestRandomConfigInvariantsProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, sizeRaw, csRaw, ttlRaw, degRaw uint8, strong, red bool) bool {
		size := 150 + int(sizeRaw)
		cs := 1 + int(csRaw)%15
		if red && cs < 2 {
			cs = 2
		}
		cfg := network.Config{
			GraphSize:    size,
			ClusterSize:  cs,
			Redundancy:   red,
			TTL:          int(ttlRaw) % 8,
			AvgOutdegree: 1 + float64(degRaw%5),
		}
		if strong {
			cfg.GraphType = network.Strong
		} else {
			cfg.GraphType = network.PowerLaw
			if n := cfg.NumClusters(); float64(n-1) < cfg.AvgOutdegree {
				cfg.GraphType = network.Strong
			}
		}
		inst, err := network.Generate(cfg, nil, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		res := Evaluate(inst)
		agg := res.AggregateLoad()
		if relDiff(agg.InBps, agg.OutBps) > 1e-9 {
			return false
		}
		if agg.ProcHz < 0 || res.ResultsPerQuery < 0 {
			return false
		}
		if res.EPL < 0 || (cfg.TTL > 0 && res.EPL > float64(cfg.TTL)+1e-9) {
			return false
		}
		if res.MeanReachClusters < 1 || res.MeanReachClusters > float64(len(inst.Clusters))+1e-9 {
			return false
		}
		// Breakdown reconstructs the aggregate.
		bd := res.LoadBreakdown()
		return relDiff(bd.Total().TotalBps(), agg.TotalBps()) < 1e-9 &&
			relDiff(bd.Total().ProcHz, agg.ProcHz) < 1e-9
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
