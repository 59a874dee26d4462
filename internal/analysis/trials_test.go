package analysis

import (
	"math"
	"reflect"
	"testing"

	"spnet/internal/network"
)

func TestRunTrialsBasic(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 500
	sum, err := RunTrials(cfg, nil, 4, 1)
	if err != nil {
		t.Fatalf("RunTrials: %v", err)
	}
	if sum.Trials != 4 {
		t.Errorf("Trials = %d, want 4", sum.Trials)
	}
	if sum.Aggregate.InBps.Mean <= 0 || sum.Aggregate.OutBps.Mean <= 0 || sum.Aggregate.ProcHz.Mean <= 0 {
		t.Errorf("aggregate means not positive: %+v", sum.Aggregate)
	}
	if sum.Aggregate.InBps.N != 4 {
		t.Errorf("summary sample count = %d", sum.Aggregate.InBps.N)
	}
	if sum.ResultsPerQuery.Mean <= 0 {
		t.Errorf("results mean = %v", sum.ResultsPerQuery.Mean)
	}
	if sum.EPL.Mean < 1 || sum.EPL.Mean > float64(cfg.TTL) {
		t.Errorf("EPL mean = %v outside [1, TTL]", sum.EPL.Mean)
	}
	// Aggregate in == out holds per trial, so means match too.
	if math.Abs(sum.Aggregate.InBps.Mean-sum.Aggregate.OutBps.Mean)/sum.Aggregate.InBps.Mean > 1e-9 {
		t.Error("mean aggregate in != out")
	}
	// Mean individual loads are far below aggregate.
	if sum.SuperPeer.InBps.Mean >= sum.Aggregate.InBps.Mean {
		t.Error("super-peer mean exceeds aggregate")
	}
	if sum.Client.InBps.Mean >= sum.SuperPeer.InBps.Mean {
		t.Error("client mean exceeds super-peer mean")
	}
}

func TestRunTrialsDeterministic(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 300
	a, err := RunTrials(cfg, nil, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrials(cfg, nil, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Aggregate.InBps.Mean != b.Aggregate.InBps.Mean ||
		a.ResultsPerQuery.Mean != b.ResultsPerQuery.Mean {
		t.Error("same seed produced different trial summaries")
	}
	c, err := RunTrials(cfg, nil, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Aggregate.InBps.Mean == c.Aggregate.InBps.Mean {
		t.Error("different seeds produced identical summaries")
	}
}

func TestRunTrialsValidation(t *testing.T) {
	cfg := network.DefaultConfig()
	if _, err := RunTrials(cfg, nil, 0, 1); err == nil {
		t.Error("trials=0 accepted")
	}
	bad := cfg
	bad.ClusterSize = 0
	if _, err := RunTrials(bad, nil, 1, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestLoadSummaryMean(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 300
	sum, err := RunTrials(cfg, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := sum.Aggregate.Mean()
	if m.InBps != sum.Aggregate.InBps.Mean || m.ProcHz != sum.Aggregate.ProcHz.Mean {
		t.Error("LoadSummary.Mean mismatch")
	}
}

func TestTrialVarianceIsModest(t *testing.T) {
	// Repeated trials of the same configuration should agree within a
	// reasonable confidence interval — the mean-value analysis is averaging
	// over instance randomness only.
	cfg := network.DefaultConfig()
	cfg.GraphSize = 1000
	sum, err := RunTrials(cfg, nil, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ci := sum.Aggregate.InBps.CI95 / sum.Aggregate.InBps.Mean; ci > 0.25 {
		t.Errorf("aggregate CI half-width is %.0f%% of the mean", ci*100)
	}
}

// TestRunTrialsDeterministicAcrossWorkers: the parallel pipeline's guarantee —
// the same seed produces a bit-identical summary at any worker count, because
// trial RNG streams are split before dispatch and the reduction runs in trial
// order.
func TestRunTrialsDeterministicAcrossWorkers(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 400
	base, err := RunTrialsWorkers(cfg, nil, 5, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8, 0} {
		got, err := RunTrialsWorkers(cfg, nil, 5, 7, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d summary differs from serial:\nserial:   %+v\nparallel: %+v", w, base, got)
		}
	}
}
