package sim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"spnet/internal/analysis"
	"spnet/internal/network"
	"spnet/internal/stats"
	"spnet/internal/workload"
)

// lowVarProfile mirrors the analysis tests: default means, light tails, so
// short runs converge.
func lowVarProfile() *workload.Profile {
	prof := workload.DefaultProfile()
	prof.Files = workload.FileCountDist{
		FreeRiderFrac: 0,
		Sharers:       stats.BoundedPareto{Alpha: 8, L: 90, H: 200},
	}
	prof.Lifespans = workload.LifespanDist{D: stats.BoundedPareto{Alpha: 8, L: 950, H: 2000}}
	return prof
}

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

func TestRunValidation(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 100
	inst := generate(t, cfg, nil, 1)
	if _, err := Run(inst, Options{Duration: 0}); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 200
	inst := generate(t, cfg, nil, 2)
	opts := Options{Duration: 200, Seed: 7, Churn: true}
	a, err := Run(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(generate(t, cfg, nil, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Aggregate != b.Aggregate || a.QueriesIssued != b.QueriesIssued ||
		a.EventsExecuted != b.EventsExecuted {
		t.Errorf("same seed differs: %+v vs %+v", a.Aggregate, b.Aggregate)
	}
}

func TestRunBasicActivity(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 300
	inst := generate(t, cfg, nil, 3)
	m, err := Run(inst, Options{Duration: 300, Seed: 1, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesIssued == 0 {
		t.Fatal("no queries issued")
	}
	if m.ResultsPerQuery <= 0 {
		t.Error("no results observed")
	}
	if m.EPL < 1 || m.EPL > float64(cfg.TTL) {
		t.Errorf("EPL = %v outside [1, %d]", m.EPL, cfg.TTL)
	}
	if m.Aggregate.InBps <= 0 || m.Aggregate.OutBps <= 0 || m.Aggregate.ProcHz <= 0 {
		t.Errorf("empty aggregate load: %+v", m.Aggregate)
	}
	if m.FinalClusters != 30 {
		t.Errorf("clusters = %d, want 30 (static topology)", m.FinalClusters)
	}
	// Expected query count: 300 users * 9.26e-3 * 300s ≈ 833.
	want := float64(inst.NumPeers) * 9.26e-3 * 300
	if relDiff(float64(m.QueriesIssued), want) > 0.15 {
		t.Errorf("queries issued = %d, want ~%.0f", m.QueriesIssued, want)
	}
}

// TestSimBandwidthConservation: every byte sent is received exactly once
// (messages in flight at the horizon make the totals differ by at most the
// tiny in-flight fraction).
func TestSimBandwidthConservation(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 400
	inst := generate(t, cfg, nil, 4)
	m, err := Run(inst, Options{Duration: 400, Seed: 2, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(m.Aggregate.InBps, m.Aggregate.OutBps) > 0.01 {
		t.Errorf("aggregate in %v vs out %v", m.Aggregate.InBps, m.Aggregate.OutBps)
	}
}

// TestSimMatchesAnalysis is the central cross-validation: the observed loads
// of the discrete-event simulator must agree with the mean-value analysis on
// the same instance within stochastic tolerance.
func TestSimMatchesAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("long cross-validation run")
	}
	prof := lowVarProfile()
	for _, tc := range []struct {
		name string
		cfg  network.Config
	}{
		{"power-law", network.Config{GraphType: network.PowerLaw, GraphSize: 600,
			ClusterSize: 10, AvgOutdegree: 3.1, TTL: 7}},
		{"strong", network.Config{GraphType: network.Strong, GraphSize: 400,
			ClusterSize: 20, TTL: 1}},
		{"redundant", network.Config{GraphType: network.PowerLaw, GraphSize: 400,
			ClusterSize: 10, AvgOutdegree: 3.1, TTL: 5, Redundancy: true}},
		{"k3-redundant", network.Config{GraphType: network.PowerLaw, GraphSize: 400,
			ClusterSize: 10, KRedundancy: 3, AvgOutdegree: 3.1, TTL: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := generate(t, tc.cfg, prof, 5)
			expected := analysisEvaluate(inst)
			m, err := Run(inst, Options{Duration: 3000, Seed: 6, Churn: true})
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, got, want float64, tol float64) {
				if want == 0 && got == 0 {
					return
				}
				if relDiff(got, want) > tol {
					t.Errorf("%s: sim %.4g vs analysis %.4g (%.1f%% off)",
						name, got, want, 100*relDiff(got, want))
				}
			}
			check("aggregate in-bw", m.Aggregate.InBps, expected.agg.InBps, 0.10)
			check("aggregate out-bw", m.Aggregate.OutBps, expected.agg.OutBps, 0.10)
			check("aggregate proc", m.Aggregate.ProcHz, expected.agg.ProcHz, 0.10)
			check("mean sp in-bw", m.MeanSuperPeer.InBps, expected.sp.InBps, 0.10)
			check("mean sp out-bw", m.MeanSuperPeer.OutBps, expected.sp.OutBps, 0.10)
			check("mean sp proc", m.MeanSuperPeer.ProcHz, expected.sp.ProcHz, 0.10)
			check("mean client in-bw", m.MeanClient.InBps, expected.client.InBps, 0.12)
			check("results/query", m.ResultsPerQuery, expected.results, 0.10)
			if expected.epl > 1.05 {
				check("EPL", m.EPL, expected.epl, 0.15)
			}
		})
	}
}

func TestSimWithoutChurnHasNoJoinTraffic(t *testing.T) {
	prof := lowVarProfile()
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 300,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 5}
	inst := generate(t, cfg, prof, 7)
	with, err := Run(inst, Options{Duration: 500, Seed: 8, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(generate(t, cfg, prof, 7), Options{Duration: 500, Seed: 8, Churn: false})
	if err != nil {
		t.Fatal(err)
	}
	// Join metadata dominates client outgoing bandwidth, so disabling churn
	// must cut it drastically.
	if without.MeanClient.OutBps >= with.MeanClient.OutBps*0.5 {
		t.Errorf("churnless client out-bw %v not far below churned %v",
			without.MeanClient.OutBps, with.MeanClient.OutBps)
	}
}

func TestSimTTLZero(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 200,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 0}
	inst := generate(t, cfg, nil, 9)
	m, err := Run(inst, Options{Duration: 300, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.EPL != 0 {
		t.Errorf("EPL = %v with TTL 0, want 0 (no overlay responses)", m.EPL)
	}
}

func TestIndexSizeAndConns(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 200,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 3, Redundancy: true}
	inst := generate(t, cfg, nil, 11)
	s, err := New(inst, Options{Duration: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range s.clusters {
		if got, want := c.indexSize(), inst.Clusters[v].IndexFiles; got != want {
			t.Fatalf("cluster %d index size %d, want %d", v, got, want)
		}
		if got, want := c.partnerConns(), inst.SuperPeerConns(v); got != want {
			t.Fatalf("cluster %d partner conns %d, want %d", v, got, want)
		}
		if got, want := c.clientConns(), inst.ClientConns(); got != want {
			t.Fatalf("cluster %d client conns %d, want %d", v, got, want)
		}
	}
}

// checkAdjacency asserts the overlay invariants the slice-backed adjacency
// promises: strictly id-ascending (hence duplicate-free) neighbor slices,
// symmetry, agreement with hasNeighbor, and the incrementally kept
// nbPartners and partnerConns equal to a recount over the neighbors.
func checkAdjacency(t *testing.T, s *Simulator) {
	t.Helper()
	for _, c := range s.clusters {
		nbPartners := 0
		for i, nb := range c.neighbors {
			if i > 0 && c.neighbors[i-1].id >= nb.id {
				t.Fatalf("cluster %d: neighbor ids not strictly ascending at %d: %d then %d",
					c.id, i, c.neighbors[i-1].id, nb.id)
			}
			if nb == c {
				t.Fatalf("cluster %d is its own neighbor", c.id)
			}
			if s.clusters[nb.id] != nb {
				t.Fatalf("cluster %d: neighbor id %d does not name the cluster it points to", c.id, nb.id)
			}
			if !nb.hasNeighbor(c.id) {
				t.Fatalf("edge %d→%d has no reverse", c.id, nb.id)
			}
			nbPartners += len(nb.partners)
		}
		if c.nbPartners != nbPartners {
			t.Fatalf("cluster %d: nbPartners = %d, recount %d", c.id, c.nbPartners, nbPartners)
		}
		for _, other := range s.clusters {
			linked := false
			for _, nb := range c.neighbors {
				linked = linked || nb == other
			}
			if c.hasNeighbor(other.id) != linked {
				t.Fatalf("cluster %d: hasNeighbor(%d) = %v, slice says %v", c.id, other.id, !linked, linked)
			}
		}
		conns := max(len(c.clients)+len(c.partners)-1+nbPartners, 0)
		if got := c.partnerConns(); got != conns {
			t.Fatalf("cluster %d: partnerConns = %d, recount %d", c.id, got, conns)
		}
	}
}

func TestAdjacencyInvariants(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 400
	run := func(cfg network.Config, opts Options) *Simulator {
		s, err := New(generate(t, cfg, nil, 11), opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAdjacency(t, s)
		s.start()
		// Check mid-run too: splits, merges and probes are in progress.
		for _, horizon := range []float64{opts.Duration / 3, opts.Duration} {
			s.runUntil(horizon)
			checkAdjacency(t, s)
		}
		return s
	}
	// The adaptive golden scenario: rule II adds and drops edges, splits wire
	// new clusters in, merges rewire a dissolved cluster's neighbors.
	s := run(cfg, Options{
		Duration: 900, Seed: 3, Churn: true,
		Adaptive: &AdaptiveOptions{
			Limit:       analysis.Load{InBps: 50_000, OutBps: 50_000, ProcHz: 1e6},
			Interval:    60,
			ArrivalRate: 0.2,
		},
	})
	if len(s.clusters) == cfg.GraphSize/cfg.ClusterSize {
		t.Error("adaptive scenario never split a cluster; edge rewiring was not exercised")
	}
	// Failures change partner counts under a fixed overlay.
	red := cfg
	red.Redundancy = true
	run(red, Options{
		Duration: 600, Seed: 21, Churn: true,
		Failures: &FailureOptions{MTBF: 400, RecoveryDelay: 60},
	})
}

// TestQueryFloodAllocatesNothing: once the seen tables, the memoised
// no-match rows, the routing state and the queue have reached their working
// size, flooding a query — first-copy marking at every cluster, match
// sampling, duplicate drops and the reverse-path Responses — allocates
// nothing.
func TestQueryFloodAllocatesNothing(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 400
	s, err := New(generate(t, cfg, nil, 11), Options{Duration: 1e6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Each round sources one query at the next partner and drains its flood
	// and Responses (all done 2·TTL·Latency later).
	settle := s.clusters[0].seen.span
	round := 0
	flood := func() {
		c := s.clusters[round%len(s.clusters)]
		round++
		s.sourceQuery(c.partners[0], nil)
		s.runUntil(s.sched.now + settle)
	}
	for i := 0; i < 5*len(s.clusters); i++ {
		flood()
	}
	events := s.sched.seq
	if allocs := testing.AllocsPerRun(len(s.clusters), flood); allocs != 0 {
		t.Errorf("a flooded query allocates %v objects after warm-up, want 0", allocs)
	}
	per := float64(s.sched.seq-events) / float64(len(s.clusters)+1)
	t.Logf("%.0f messages per flood", per)
	if per < 50 {
		t.Fatalf("only %.0f messages per flood; the message path was not exercised", per)
	}
}

// TestConcurrentRunsShareProfile: simulators running concurrently over one
// instance share its Profile and QueryModel; the no-match memo is per
// Simulator, so each concurrent run reproduces its serial result exactly.
// Run it under -race.
func TestConcurrentRunsShareProfile(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 400
	inst := generate(t, cfg, nil, 11)
	digest := func(m *Measured) string {
		return fmt.Sprintf("%.17g/%.17g/%.17g/%d", m.Aggregate.InBps, m.Aggregate.OutBps, m.Aggregate.ProcHz, m.EventsExecuted)
	}
	opts := func(i int) Options { return Options{Duration: 60, Seed: uint64(20 + i), Churn: true} }
	const runs = 4
	var serial, concurrent [runs]string
	for i := range serial {
		m, err := Run(inst, opts(i))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = digest(m)
	}
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := range concurrent {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := Run(inst, opts(i))
			if err != nil {
				errs[i] = err
				return
			}
			concurrent[i] = digest(m)
		}(i)
	}
	wg.Wait()
	for i := range serial {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if concurrent[i] != serial[i] {
			t.Errorf("run %d: concurrent %s, serial %s", i, concurrent[i], serial[i])
		}
	}
}
