package spnet_test

import (
	"math"
	"testing"

	"spnet"
)

func TestFacadeQuickstart(t *testing.T) {
	cfg := spnet.DefaultConfig()
	cfg.GraphSize = 500
	inst, err := spnet.Generate(cfg, nil, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	res := spnet.Evaluate(inst)
	if res.ResultsPerQuery <= 0 {
		t.Error("no results")
	}
	sp := res.MeanSuperPeerLoad()
	cl := res.MeanClientLoad()
	if sp.TotalBps() <= cl.TotalBps() {
		t.Error("super-peers should carry more load than clients")
	}
	agg := res.AggregateLoad()
	if math.Abs(agg.InBps-agg.OutBps)/agg.InBps > 1e-9 {
		t.Error("aggregate in != out")
	}
}

func TestFacadeTrials(t *testing.T) {
	cfg := spnet.DefaultConfig()
	cfg.GraphSize = 300
	sum, err := spnet.RunTrials(cfg, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trials != 2 || sum.ResultsPerQuery.Mean <= 0 {
		t.Errorf("unexpected summary: %+v", sum.ResultsPerQuery)
	}
}

func TestFacadeDesign(t *testing.T) {
	plan, err := spnet.Design(
		spnet.Goals{NetworkSize: 2000, DesiredReach: 400},
		spnet.Constraints{MaxDownBps: 1e5, MaxUpBps: 1e5, MaxProcHz: 1e7, MaxConns: 100},
		spnet.DesignOptions{Trials: 1, Seed: 1},
	)
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	if plan.Config.ClusterSize < 1 || plan.Config.TTL < 1 {
		t.Errorf("degenerate plan: %+v", plan.Config)
	}
}

func TestFacadeSimulate(t *testing.T) {
	cfg := spnet.DefaultConfig()
	cfg.GraphSize = 200
	inst, err := spnet.Generate(cfg, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spnet.Simulate(inst, spnet.SimOptions{Duration: 120, Seed: 4, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesIssued == 0 || m.Aggregate.InBps <= 0 {
		t.Errorf("inactive simulation: %+v", m)
	}
}

func TestFacadeTTLHelpers(t *testing.T) {
	if ttl := spnet.PredictTTL(20, 500); ttl != 3 {
		t.Errorf("PredictTTL(20, 500) = %d, want 3", ttl)
	}
	epl, err := spnet.MeasureEPL(800, 10, 300, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if epl < 1 || epl > 6 {
		t.Errorf("MeasureEPL = %v", epl)
	}
}

func TestFacadeAdvise(t *testing.T) {
	adv := spnet.Advise(spnet.LocalState{
		Load:    spnet.Load{InBps: 10},
		Limit:   spnet.Load{InBps: 1000, OutBps: 1000, ProcHz: 1e6},
		Clients: 3, Outdegree: 3, TTL: 7,
	}, spnet.Thresholds{})
	if !adv.AcceptClients {
		t.Error("should accept clients")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := spnet.ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	titles := spnet.ExperimentTitles()
	for _, id := range ids {
		if titles[id] == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
	rep, err := spnet.RunExperiment("table2", spnet.ExperimentParams{})
	if err != nil {
		t.Fatal(err)
	}
	if text := spnet.FormatReport(rep); len(text) < 100 {
		t.Errorf("report text too short: %q", text)
	}
	if _, err := spnet.RunExperiment("nope", spnet.ExperimentParams{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeCustomQueryModel(t *testing.T) {
	qm, err := spnet.NewQueryModel([]float64{0.7, 0.3}, []float64{0.001, 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	prof := spnet.DefaultProfile()
	prof.Queries = qm
	cfg := spnet.DefaultConfig()
	cfg.GraphSize = 200
	inst, err := spnet.Generate(cfg, prof, 6)
	if err != nil {
		t.Fatal(err)
	}
	res := spnet.Evaluate(inst)
	want := qm.MeanSelectionPower() * float64(instTotalFiles(inst))
	if res.ResultsPerQuery > want*1.05 {
		t.Errorf("results %v exceed full-reach bound %v", res.ResultsPerQuery, want)
	}
}

func instTotalFiles(inst *spnet.Instance) int {
	total := 0
	for i := range inst.Clusters {
		total += inst.Clusters[i].IndexFiles
	}
	return total
}

func TestFacadeContentMode(t *testing.T) {
	lib := spnet.DefaultLibrary()
	qm, err := spnet.BuildQueryModel(lib, 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if qm.MeanSelectionPower() <= 0 {
		t.Error("derived model has zero selection power")
	}
	cfg := spnet.DefaultConfig()
	cfg.GraphSize = 150
	inst, err := spnet.Generate(cfg, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spnet.Simulate(inst, spnet.SimOptions{
		Duration: 120, Seed: 3,
		Content: &spnet.ContentOptions{Library: lib},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.ResultsPerQuery <= 0 {
		t.Error("content mode returned no results")
	}
}

func TestFacadeFailures(t *testing.T) {
	cfg := spnet.DefaultConfig()
	cfg.GraphSize = 150
	inst, err := spnet.Generate(cfg, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spnet.Simulate(inst, spnet.SimOptions{
		Duration: 800, Seed: 5,
		Failures: &spnet.FailureOptions{
			RecoveryDelay: 100,
			Schedule:      spnet.ExponentialFailureSchedule(6, len(inst.Clusters), 1, 400, 800),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.FailuresInjected == 0 {
		t.Error("no failures injected")
	}
}

func TestFacadeKRedundancy(t *testing.T) {
	cfg := spnet.DefaultConfig()
	cfg.GraphSize = 300
	cfg.KRedundancy = 3
	inst, err := spnet.Generate(cfg, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Clusters[0].Partners) != 3 {
		t.Errorf("partners = %d, want 3", len(inst.Clusters[0].Partners))
	}
	res := spnet.Evaluate(inst)
	if res.MeanSuperPeerLoad().TotalBps() <= 0 {
		t.Error("no load computed")
	}
}
