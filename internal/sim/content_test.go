package sim

import (
	"math"
	"testing"

	"spnet/internal/content"
	"spnet/internal/network"
	"spnet/internal/stats"
)

func TestContentModeRuns(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 300,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 5}
	inst := generate(t, cfg, lowVarProfile(), 1)
	m, err := Run(inst, Options{
		Duration: 400, Seed: 2, Churn: true,
		Content: &ContentOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesIssued == 0 {
		t.Fatal("no queries issued")
	}
	if m.ResultsPerQuery <= 0 {
		t.Error("content mode produced no results")
	}
	if m.Aggregate.InBps <= 0 {
		t.Error("no load measured")
	}
}

func TestContentModeIndexesEveryFile(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 200,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 3}
	inst := generate(t, cfg, lowVarProfile(), 3)
	s, err := New(inst, Options{Duration: 1, Content: &ContentOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range s.clusters {
		if c.index == nil {
			t.Fatalf("cluster %d has no index", v)
		}
		if got, want := c.index.NumDocs(), inst.Clusters[v].IndexFiles; got != want {
			t.Fatalf("cluster %d indexed %d docs, want %d", v, got, want)
		}
	}
}

func TestContentModeChurnMaintainsIndex(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 200,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 3}
	prof := lowVarProfile()
	inst := generate(t, cfg, prof, 4)
	s, err := New(inst, Options{Duration: 3000, Seed: 5, Churn: true, Content: &ContentOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	before := make([]int, len(s.clusters))
	for v, c := range s.clusters {
		before[v] = c.index.NumDocs()
	}
	s.start()
	s.runUntil(3000) // several full churn cycles per slot
	for v, c := range s.clusters {
		if got := c.index.NumDocs(); got != before[v] {
			t.Fatalf("cluster %d index drifted: %d -> %d docs (stable churn must conserve)",
				v, before[v], got)
		}
	}
}

func TestContentModeMatchesDerivedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("long content-vs-model comparison")
	}
	// Content-mode results should agree with a sampled-mode run whose query
	// model was derived from the same library (the content->model bridge).
	lib := content.DefaultLibrary()
	qm, err := lib.BuildQueryModel(stats.NewRNG(99), 50000)
	if err != nil {
		t.Fatal(err)
	}
	prof := lowVarProfile()
	prof.Queries = qm

	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 400,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 5}
	inst := generate(t, cfg, prof, 6)

	contentRun, err := Run(inst, Options{
		Duration: 1500, Seed: 7, Content: &ContentOptions{Library: lib},
	})
	if err != nil {
		t.Fatal(err)
	}
	modelRun, err := Run(generate(t, cfg, prof, 6), Options{Duration: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ratio := contentRun.ResultsPerQuery / modelRun.ResultsPerQuery
	if math.Abs(ratio-1) > 0.30 {
		t.Errorf("content results %.1f vs model results %.1f (ratio %.2f)",
			contentRun.ResultsPerQuery, modelRun.ResultsPerQuery, ratio)
	}
	// Loads follow results, so they should be in the same regime too.
	if r := contentRun.Aggregate.InBps / modelRun.Aggregate.InBps; r < 0.5 || r > 2 {
		t.Errorf("aggregate bandwidth ratio = %.2f", r)
	}
}

func TestContentModeIncompatibilities(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 100
	inst := generate(t, cfg, nil, 8)
	if _, err := Run(inst, Options{
		Duration: 10, Content: &ContentOptions{},
		Adaptive: &AdaptiveOptions{},
	}); err == nil {
		t.Error("content+adaptive accepted")
	}
	if _, err := Run(inst, Options{
		Duration: 10, Content: &ContentOptions{},
		Failures: &FailureOptions{RecoveryDelay: 10},
	}); err == nil {
		t.Error("content+failures accepted")
	}
}

func TestContentModeDeterministic(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 150,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 3}
	opts := Options{Duration: 300, Seed: 9, Churn: true, Content: &ContentOptions{}}
	a, err := Run(generate(t, cfg, nil, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(generate(t, cfg, nil, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Aggregate != b.Aggregate || a.ResultsPerQuery != b.ResultsPerQuery {
		t.Error("content mode not deterministic")
	}
}
