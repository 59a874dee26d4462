package network

import (
	"math"
	"testing"
	"testing/quick"

	"spnet/internal/stats"
	"spnet/internal/workload"
)

func mustGenerate(t *testing.T, cfg Config, seed uint64) *Instance {
	t.Helper()
	inst, err := Generate(cfg, nil, stats.NewRNG(seed))
	if err != nil {
		t.Fatalf("Generate(%v): %v", cfg, err)
	}
	return inst
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if c.GraphType != PowerLaw || c.GraphSize != 10000 || c.ClusterSize != 10 ||
		c.Redundant() || c.AvgOutdegree != 3.1 || c.TTL != 7 {
		t.Errorf("DefaultConfig() = %+v does not match Table 1", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if c.NumClusters() != 1000 {
		t.Errorf("NumClusters = %d, want 1000", c.NumClusters())
	}
}

func TestConfigValidation(t *testing.T) {
	mk := func(mutate func(*Config)) Config {
		c := DefaultConfig()
		mutate(&c)
		return c
	}
	bad := map[string]Config{
		"zero size":        mk(func(c *Config) { c.GraphSize = 0 }),
		"zero cluster":     mk(func(c *Config) { c.ClusterSize = 0 }),
		"cluster too big":  mk(func(c *Config) { c.ClusterSize = c.GraphSize + 1 }),
		"redundant size 1": mk(func(c *Config) { c.ClusterSize = 1; c.KRedundancy = 2 }),
		"negative ttl":     mk(func(c *Config) { c.TTL = -1 }),
		"tiny outdegree":   mk(func(c *Config) { c.AvgOutdegree = 0.2 }),
		"huge outdegree":   mk(func(c *Config) { c.AvgOutdegree = 1e6 }),
		"bogus graph type": mk(func(c *Config) { c.GraphType = GraphType(99) }),
	}
	for name, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	// Strong graphs ignore outdegree.
	ok := mk(func(c *Config) { c.GraphType = Strong; c.AvgOutdegree = 0 })
	if err := ok.Validate(); err != nil {
		t.Errorf("strong graph rejected: %v", err)
	}
}

func TestMeanClientsAndPartners(t *testing.T) {
	c := DefaultConfig()
	if c.MeanClients() != 9 || c.Partners() != 1 {
		t.Errorf("non-redundant: clients %v partners %d", c.MeanClients(), c.Partners())
	}
	c.KRedundancy = 2
	if c.MeanClients() != 8 || c.Partners() != 2 {
		t.Errorf("redundant: clients %v partners %d", c.MeanClients(), c.Partners())
	}
}

func TestGenerateBasicShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphSize = 2000
	inst := mustGenerate(t, cfg, 1)
	if got, want := len(inst.Clusters), 200; got != want {
		t.Fatalf("clusters = %d, want %d", got, want)
	}
	if inst.Graph.N() != 200 {
		t.Fatalf("graph size = %d", inst.Graph.N())
	}
	for i := range inst.Clusters {
		cl := &inst.Clusters[i]
		if len(cl.Partners) != 1 {
			t.Fatalf("cluster %d has %d partners", i, len(cl.Partners))
		}
		if cl.Users() != len(cl.Clients)+1 {
			t.Fatalf("cluster %d users mismatch", i)
		}
	}
	// Realized peers should be near the configured size.
	if math.Abs(float64(inst.NumPeers-2000)) > 200 {
		t.Errorf("NumPeers = %d, want ~2000", inst.NumPeers)
	}
}

func TestGenerateClusterSizeDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphSize = 10000
	cfg.ClusterSize = 20
	inst := mustGenerate(t, cfg, 2)
	var counts []float64
	for i := range inst.Clusters {
		counts = append(counts, float64(len(inst.Clusters[i].Clients)))
	}
	mean := stats.Mean(counts)
	sd := stats.StdDev(counts)
	if math.Abs(mean-19) > 1 {
		t.Errorf("mean clients = %v, want ~19", mean)
	}
	// C ~ N(c̄, .2c̄) => sd ≈ 3.8.
	if math.Abs(sd-3.8) > 0.8 {
		t.Errorf("client stddev = %v, want ~3.8", sd)
	}
}

func TestGenerateRedundant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphSize = 1000
	cfg.KRedundancy = 2
	inst := mustGenerate(t, cfg, 3)
	for i := range inst.Clusters {
		cl := &inst.Clusters[i]
		if len(cl.Partners) != 2 {
			t.Fatalf("cluster %d has %d partners, want 2", i, len(cl.Partners))
		}
		// Index covers clients plus both partners.
		want := cl.Partners[0].Files + cl.Partners[1].Files
		for _, c := range cl.Clients {
			want += c.Files
		}
		if cl.IndexFiles != want {
			t.Fatalf("cluster %d IndexFiles = %d, want %d", i, cl.IndexFiles, want)
		}
	}
}

func TestGenerateStrongIsClique(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphType = Strong
	cfg.GraphSize = 500
	cfg.ClusterSize = 50
	inst := mustGenerate(t, cfg, 4)
	if !inst.Graph.IsClique() {
		t.Error("strong graph is not a clique")
	}
	if inst.Graph.N() != 10 {
		t.Errorf("clique size = %d, want 10", inst.Graph.N())
	}
}

func TestGenerateSingleCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphSize = 100
	cfg.ClusterSize = 100
	inst := mustGenerate(t, cfg, 5)
	if len(inst.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(inst.Clusters))
	}
	if inst.Graph.Degree(0) != 0 {
		t.Errorf("single cluster should have no neighbors")
	}
}

func TestGeneratePureP2P(t *testing.T) {
	// ClusterSize 1: every node is a super-peer with no clients.
	cfg := DefaultConfig()
	cfg.GraphSize = 300
	cfg.ClusterSize = 1
	inst := mustGenerate(t, cfg, 6)
	for i := range inst.Clusters {
		if len(inst.Clusters[i].Clients) != 0 {
			t.Fatalf("pure P2P cluster %d has clients", i)
		}
	}
	if inst.NumPeers != 300 {
		t.Errorf("NumPeers = %d, want 300", inst.NumPeers)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphSize = 1000
	a := mustGenerate(t, cfg, 7)
	b := mustGenerate(t, cfg, 7)
	if a.NumPeers != b.NumPeers || a.TotalFiles() != b.TotalFiles() {
		t.Error("same seed produced different instances")
	}
	for i := range a.Clusters {
		if a.Clusters[i].IndexFiles != b.Clusters[i].IndexFiles {
			t.Fatalf("cluster %d differs across identical seeds", i)
		}
	}
}

func TestClusterExpectationsConsistent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphSize = 2000
	inst := mustGenerate(t, cfg, 8)
	qm := inst.Profile.Queries
	for i := range inst.Clusters {
		cl := &inst.Clusters[i]
		if got, want := cl.ExpResults, qm.ExpectedResults(cl.IndexFiles); math.Abs(got-want) > 1e-9 {
			t.Fatalf("cluster %d ExpResults = %v, want %v", i, got, want)
		}
		if cl.ExpAddrs > float64(cl.Users())+1e-9 {
			t.Fatalf("cluster %d ExpAddrs %v exceeds collections %d", i, cl.ExpAddrs, cl.Users())
		}
		if cl.ProbResp < 0 || cl.ProbResp > 1 {
			t.Fatalf("cluster %d ProbResp = %v", i, cl.ProbResp)
		}
		if cl.ProbResp > cl.ExpResults+1e-12 {
			t.Fatalf("cluster %d: P(respond) %v > E[results] %v", i, cl.ProbResp, cl.ExpResults)
		}
		// The address count can't exceed the result count in expectation
		// (each responding collection contributes >= 1 result).
		if cl.ExpAddrs > cl.ExpResults+1e-9 {
			t.Fatalf("cluster %d: E[addrs] %v > E[results] %v", i, cl.ExpAddrs, cl.ExpResults)
		}
	}
}

// TestExpectationsMatchStraightRecomputation: Generate prices each distinct
// file count once per call; every cluster's Appendix B quantities must equal
// (==, not ≈) the unmemoised QueryModel calls, at paper scale with the default
// model and with a custom one.
func TestExpectationsMatchStraightRecomputation(t *testing.T) {
	custom := workload.DefaultProfile()
	qm, err := workload.NewQueryModel([]float64{5, 3, 1, 1}, []float64{0.02, 1e-3, 4e-5, 0})
	if err != nil {
		t.Fatal(err)
	}
	custom.Queries = qm
	cfg := DefaultConfig()
	cfg.GraphSize = 10000
	for name, prof := range map[string]*workload.Profile{"default": nil, "custom": custom} {
		inst, err := Generate(cfg, prof, stats.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		qm := inst.Profile.Queries
		distinct := make(map[int]bool)
		for i := range inst.Clusters {
			cl := &inst.Clusters[i]
			var collections []int
			for _, p := range cl.Partners {
				collections = append(collections, p.Files)
			}
			for _, p := range cl.Clients {
				collections = append(collections, p.Files)
			}
			total := 0
			for _, n := range collections {
				total += n
				distinct[n] = true
			}
			if cl.IndexFiles != total {
				t.Fatalf("%s cluster %d: IndexFiles = %d, want %d", name, i, cl.IndexFiles, total)
			}
			if got, want := cl.ExpAddrs, qm.ExpectedMatchingClients(collections); got != want {
				t.Fatalf("%s cluster %d: ExpAddrs = %.17g, want %.17g", name, i, got, want)
			}
			if got, want := cl.ProbResp, qm.ProbAnyResult(total); got != want {
				t.Fatalf("%s cluster %d: ProbResp = %.17g, want %.17g", name, i, got, want)
			}
			if got, want := cl.ExpResults, qm.ExpectedResults(total); got != want {
				t.Fatalf("%s cluster %d: ExpResults = %.17g, want %.17g", name, i, got, want)
			}
		}
		if len(distinct) >= inst.NumPeers/2 {
			t.Errorf("%s: %d distinct file counts over %d peers; the memo would not pay", name, len(distinct), inst.NumPeers)
		}
	}
}

func TestConnectionCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphSize = 1000
	inst := mustGenerate(t, cfg, 9)
	if inst.ClientConns() != 1 {
		t.Errorf("ClientConns = %d, want 1", inst.ClientConns())
	}
	for v := range inst.Clusters {
		want := len(inst.Clusters[v].Clients) + inst.Graph.Degree(v)
		if got := inst.SuperPeerConns(v); got != want {
			t.Fatalf("cluster %d conns = %d, want %d", v, got, want)
		}
	}

	cfg.KRedundancy = 2
	inst = mustGenerate(t, cfg, 9)
	if inst.ClientConns() != 2 {
		t.Errorf("redundant ClientConns = %d, want 2", inst.ClientConns())
	}
	for v := range inst.Clusters {
		want := len(inst.Clusters[v].Clients) + 2*inst.Graph.Degree(v) + 1
		if got := inst.SuperPeerConns(v); got != want {
			t.Fatalf("redundant cluster %d conns = %d, want %d", v, got, want)
		}
	}
}

func TestForEachNodeCoversAllPeers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphSize = 500
	inst := mustGenerate(t, cfg, 10)
	seen := 0
	superPeers := 0
	inst.ForEachNode(func(id NodeID, p Peer) {
		seen++
		if id.IsSuperPeer() {
			superPeers++
			if id.Client != -1 {
				t.Fatal("super-peer with client index")
			}
		} else if id.Partner != -1 {
			t.Fatal("client with partner index")
		}
		if p.Lifespan <= 0 {
			t.Fatal("peer with non-positive lifespan")
		}
	})
	if seen != inst.NumPeers {
		t.Errorf("visited %d nodes, want %d", seen, inst.NumPeers)
	}
	if superPeers != len(inst.Clusters) {
		t.Errorf("visited %d super-peers, want %d", superPeers, len(inst.Clusters))
	}
}

func TestGenerateRejectsBadProfile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphSize = 100
	bad := workload.DefaultProfile()
	bad.QueryLen = -5
	if _, err := Generate(cfg, bad, stats.NewRNG(1)); err == nil {
		t.Error("bad profile accepted")
	}
}

func TestGenerateInvariantsProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, sizeRaw, clRaw uint8, red bool) bool {
		size := 200 + int(sizeRaw)*4
		clusterSize := 1 + int(clRaw)%20
		if red && clusterSize < 2 {
			clusterSize = 2
		}
		cfg := DefaultConfig()
		cfg.GraphSize = size
		cfg.ClusterSize = clusterSize
		if red {
			cfg.KRedundancy = 2
		}
		inst, err := Generate(cfg, nil, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		total := 0
		for i := range inst.Clusters {
			cl := &inst.Clusters[i]
			total += cl.Users()
			if len(cl.Partners) != cfg.Partners() {
				return false
			}
			if cl.ExpResults < 0 || cl.ExpAddrs < 0 {
				return false
			}
		}
		return total == inst.NumPeers
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGraphTypeString(t *testing.T) {
	if Strong.String() != "strong" || PowerLaw.String() != "power-law" {
		t.Error("GraphType.String mismatch")
	}
	if GraphType(9).String() == "" {
		t.Error("unknown GraphType should still print")
	}
}

func TestKRedundancyGeneralizes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphSize = 600
	cfg.KRedundancy = 3
	if got := cfg.Partners(); got != 3 {
		t.Fatalf("Partners() = %d, want 3", got)
	}
	if cfg.MeanClients() != 7 {
		t.Errorf("MeanClients = %v, want 7", cfg.MeanClients())
	}
	if !cfg.Redundant() {
		t.Error("Redundant() false for k=3")
	}
	inst := mustGenerate(t, cfg, 21)
	for i := range inst.Clusters {
		if len(inst.Clusters[i].Partners) != 3 {
			t.Fatalf("cluster %d has %d partners", i, len(inst.Clusters[i].Partners))
		}
	}
	// Conns per partner: clients + 3·deg + 2 co-partner links.
	for v := range inst.Clusters {
		want := len(inst.Clusters[v].Clients) + 3*inst.Graph.Degree(v) + 2
		if got := inst.SuperPeerConns(v); got != want {
			t.Fatalf("cluster %d conns = %d, want %d", v, got, want)
		}
	}
	if inst.ClientConns() != 3 {
		t.Errorf("ClientConns = %d, want 3", inst.ClientConns())
	}
}

func TestKRedundancyZeroMeansOnePartner(t *testing.T) {
	c := DefaultConfig()
	for _, k := range []int{0, 1} {
		c.KRedundancy = k
		if c.Partners() != 1 || c.Redundant() {
			t.Errorf("KRedundancy=%d should mean a single partner: %d", k, c.Partners())
		}
	}
	c.KRedundancy = 3
	if c.Partners() != 3 || !c.Redundant() {
		t.Errorf("KRedundancy=3: partners %d, redundant %v", c.Partners(), c.Redundant())
	}
}

func TestKRedundancyValidation(t *testing.T) {
	c := DefaultConfig()
	c.KRedundancy = -1
	if err := c.Validate(); err == nil {
		t.Error("negative k accepted")
	}
	c.KRedundancy = 5
	c.ClusterSize = 4
	if err := c.Validate(); err == nil {
		t.Error("k > cluster size accepted")
	}
}
