package analysis

import (
	"testing"

	"spnet/internal/network"
	"spnet/internal/stats"
	"spnet/internal/workload"
)

// profileWithRates returns the default workload, optionally with the
// Appendix C tenfold-lower query rate.
func profileWithRates(lowQueryRate bool) *workload.Profile {
	prof := workload.DefaultProfile()
	if lowQueryRate {
		prof.Rates = workload.LowQueryRates()
	}
	return prof
}

// lowVarProfile keeps the default means but shrinks the file-count and
// lifespan tails so that cross-configuration ratio assertions at small scale
// are not swamped by heavy-tail sampling noise. The rules of thumb are
// structural claims; they do not depend on the tail.
func lowVarProfile() *workload.Profile {
	prof := workload.DefaultProfile()
	prof.Files = workload.FileCountDist{
		FreeRiderFrac: 0,
		Sharers:       stats.BoundedPareto{Alpha: 8, L: 90, H: 200},
	}
	prof.Lifespans = workload.LifespanDist{D: stats.BoundedPareto{Alpha: 8, L: 950, H: 2000}}
	return prof
}

// evalCfgProf is evalCfg with an explicit profile.
func evalCfgProf(t *testing.T, cfg network.Config, prof *workload.Profile, seed uint64) *Result {
	t.Helper()
	return Evaluate(generate(t, cfg, prof, seed))
}

// These tests verify that the paper's four rules of thumb (Section 5.1)
// emerge from the analysis engine at reduced scale.

func evalCfg(t *testing.T, cfg network.Config, seed uint64) *Result {
	t.Helper()
	return Evaluate(generate(t, cfg, nil, seed))
}

// Rule #1a: increasing cluster size decreases aggregate load.
func TestRule1AggregateLoadFallsWithClusterSize(t *testing.T) {
	base := network.Config{GraphType: network.Strong, GraphSize: 2000, TTL: 1}
	var prev float64
	for i, cs := range []int{1, 10, 100} {
		cfg := base
		cfg.ClusterSize = cs
		agg := evalCfg(t, cfg, 20).AggregateLoad().TotalBps()
		if i > 0 && agg >= prev {
			t.Errorf("aggregate bandwidth did not fall: cluster %d -> %v, previous %v", cs, agg, prev)
		}
		prev = agg
	}
}

// Rule #1b: increasing cluster size increases individual super-peer load.
func TestRule1IndividualLoadGrowsWithClusterSize(t *testing.T) {
	base := network.Config{GraphType: network.Strong, GraphSize: 2000, TTL: 1}
	var prev float64
	for i, cs := range []int{10, 50, 100} {
		cfg := base
		cfg.ClusterSize = cs
		sp := evalCfg(t, cfg, 21).MeanSuperPeerLoad().TotalBps()
		if i > 0 && sp <= prev {
			t.Errorf("individual super-peer bandwidth did not grow: cluster %d -> %v, previous %v", cs, sp, prev)
		}
		prev = sp
	}
	// The paper: "a super-peer with 100 clients has almost twice the load as
	// a super-peer with 50".
	cfg50, cfg100 := base, base
	cfg50.ClusterSize = 51
	cfg100.ClusterSize = 101
	l50 := evalCfg(t, cfg50, 22).MeanSuperPeerLoad().TotalBps()
	l100 := evalCfg(t, cfg100, 22).MeanSuperPeerLoad().TotalBps()
	if ratio := l100 / l50; ratio < 1.5 || ratio > 2.5 {
		t.Errorf("load ratio 100/50 clients = %v, want ~2", ratio)
	}
}

// Rule #1 exception: incoming super-peer bandwidth peaks near a cluster
// fraction of one half and has a minimum at a single cluster (Figure 5).
func TestRule1IncomingBandwidthException(t *testing.T) {
	base := network.Config{GraphType: network.Strong, GraphSize: 1000, TTL: 1}
	load := func(cs int, seed uint64) float64 {
		cfg := base
		cfg.ClusterSize = cs
		return evalCfg(t, cfg, seed).MeanSuperPeerLoad().InBps
	}
	half := load(500, 23)  // f = 1/2: the analytic maximum of f(1-f)
	full := load(1000, 23) // f = 1: single super-peer
	small := load(100, 23) // f = 1/10
	if full >= half {
		t.Errorf("incoming bandwidth at cluster=size (%v) should be below the f=1/2 peak (%v)", full, half)
	}
	if small >= half {
		t.Errorf("incoming bandwidth at f=0.1 (%v) should be below the f=1/2 peak (%v)", small, half)
	}
}

// Rule #2: 2-redundancy leaves aggregate bandwidth nearly unchanged but cuts
// individual super-peer load substantially (the paper reports +2.5% aggregate
// and -48% individual at cluster size 100 in the strong network).
func TestRule2RedundancyHelps(t *testing.T) {
	plain := network.Config{GraphType: network.Strong, GraphSize: 2000, ClusterSize: 100, TTL: 1}
	red := plain
	red.KRedundancy = 2
	prof := lowVarProfile()
	// Client counts are N(c̄, .2c̄) per cluster, so single instances of a
	// 20-cluster system are noisy; average over trials (the paper's Step 4).
	rp, err := RunTrials(plain, prof, 30, 24)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RunTrials(red, prof, 30, 24)
	if err != nil {
		t.Fatal(err)
	}

	aggP := rp.Aggregate.InBps.Mean + rp.Aggregate.OutBps.Mean
	aggR := rr.Aggregate.InBps.Mean + rr.Aggregate.OutBps.Mean
	if rel := (aggR - aggP) / aggP; rel < -0.10 || rel > 0.20 {
		t.Errorf("redundancy changed aggregate bandwidth by %.1f%%, want roughly unchanged", 100*rel)
	}
	spP := rp.SuperPeer.InBps.Mean + rp.SuperPeer.OutBps.Mean
	spR := rr.SuperPeer.InBps.Mean + rr.SuperPeer.OutBps.Mean
	if drop := 1 - spR/spP; drop < 0.30 || drop > 0.60 {
		t.Errorf("redundancy cut individual super-peer bandwidth by %.1f%%, want ~48%%", 100*drop)
	}
	// Aggregate processing rises (twice the partners) while individual
	// processing falls (the paper: +17% / -41%).
	if rr.Aggregate.ProcHz.Mean <= rp.Aggregate.ProcHz.Mean {
		t.Error("aggregate processing should rise with redundancy")
	}
	if rr.SuperPeer.ProcHz.Mean >= rp.SuperPeer.ProcHz.Mean {
		t.Error("individual processing should fall with redundancy")
	}
	// Client outgoing load rises (metadata shipped to two partners).
	if rr.Client.OutBps.Mean <= rp.Client.OutBps.Mean {
		t.Error("client outgoing load should rise with redundancy")
	}
}

// Rule #2 comparison: redundancy beats halving the cluster size on
// individual bandwidth for the same reliability budget ("driving it down to
// the individual load of a non-redundant super-peer [of half the] cluster").
func TestRule2RedundancyVsHalfClusters(t *testing.T) {
	red := network.Config{GraphType: network.Strong, GraphSize: 2000, ClusterSize: 100,
		TTL: 1, KRedundancy: 2}
	half := network.Config{GraphType: network.Strong, GraphSize: 2000, ClusterSize: 50, TTL: 1}
	prof := lowVarProfile()
	sr, err := RunTrials(red, prof, 20, 25)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := RunTrials(half, prof, 20, 25)
	if err != nil {
		t.Fatal(err)
	}
	lr := sr.SuperPeer.InBps.Mean + sr.SuperPeer.OutBps.Mean
	lh := sh.SuperPeer.InBps.Mean + sh.SuperPeer.OutBps.Mean
	// The paper finds redundancy comparable to or better than half-size
	// clusters; allow it to be within 20% either way.
	if lr > lh*1.2 {
		t.Errorf("redundant partner load %v far above half-cluster load %v", lr, lh)
	}
}

// Rule #3: raising everyone's outdegree lowers loads at equal or better
// result quality (Appendix D: >31% bandwidth saving from 3.1 to 10).
func TestRule3HigherOutdegreeWins(t *testing.T) {
	lo := network.Config{GraphType: network.PowerLaw, GraphSize: 4000, ClusterSize: 100,
		AvgOutdegree: 3.1, TTL: 7}
	hi := lo
	hi.AvgOutdegree = 10
	prof := lowVarProfile()
	rl := evalCfgProf(t, lo, prof, 26)
	rh := evalCfgProf(t, hi, prof, 26)
	if rh.EPL >= rl.EPL {
		t.Errorf("EPL did not fall: %v -> %v", rl.EPL, rh.EPL)
	}
	if rh.ResultsPerQuery < rl.ResultsPerQuery*0.99 {
		t.Errorf("results fell: %v -> %v", rl.ResultsPerQuery, rh.ResultsPerQuery)
	}
	aggLo, aggHi := rl.AggregateLoad().TotalBps(), rh.AggregateLoad().TotalBps()
	if save := 1 - aggHi/aggLo; save < 0.10 {
		t.Errorf("aggregate bandwidth saving = %.1f%%, want substantial (paper: >31%%)", 100*save)
	}
}

// Rule #4: once reach is full, lowering TTL saves bandwidth without losing
// results (the paper: 19% aggregate incoming bandwidth from TTL 4 -> 3 at
// outdegree 20).
func TestRule4MinimizeTTL(t *testing.T) {
	cfg3 := network.Config{GraphType: network.PowerLaw, GraphSize: 4000, ClusterSize: 10,
		AvgOutdegree: 20, TTL: 3}
	cfg4 := cfg3
	cfg4.TTL = 4
	prof := lowVarProfile()
	r3 := evalCfgProf(t, cfg3, prof, 27)
	r4 := evalCfgProf(t, cfg4, prof, 27)
	if r3.MeanReachClusters < float64(r3.Inst.Graph.N())*0.999 {
		t.Skipf("TTL 3 reach %v below full %d", r3.MeanReachClusters, r3.Inst.Graph.N())
	}
	// Reach is (essentially) full for both, so results agree to within the
	// tiny residual of sources that are not quite covered at TTL 3.
	if relDiff(r3.ResultsPerQuery, r4.ResultsPerQuery) > 1e-4 {
		t.Errorf("results differ across TTL: %v vs %v", r3.ResultsPerQuery, r4.ResultsPerQuery)
	}
	in3, in4 := r3.AggregateLoad().InBps, r4.AggregateLoad().InBps
	if save := 1 - in3/in4; save < 0.05 {
		t.Errorf("TTL 4->3 saved %.1f%% incoming bandwidth, want noticeable (paper: 19%%)", 100*save)
	}
}

// Appendix C: with a tenfold lower query rate the cluster-size effect on
// aggregate load weakens and redundancy's aggregate penalty grows.
func TestAppendixCLowQueryRate(t *testing.T) {
	cfg := network.Config{GraphType: network.Strong, GraphSize: 1000, ClusterSize: 100, TTL: 1}
	red := cfg
	red.KRedundancy = 2

	defProf := lowVarProfile()
	lowProf := lowVarProfile()
	lowProf.Rates = workload.LowQueryRates()

	total := func(cfg network.Config, prof *workload.Profile) float64 {
		s, err := RunTrials(cfg, prof, 20, 28)
		if err != nil {
			t.Fatal(err)
		}
		return s.Aggregate.InBps.Mean + s.Aggregate.OutBps.Mean
	}
	aggDef := total(cfg, defProf)
	aggDefRed := total(red, defProf)
	aggLow := total(cfg, lowProf)
	aggLowRed := total(red, lowProf)

	penaltyDef := aggDefRed/aggDef - 1
	penaltyLow := aggLowRed/aggLow - 1
	if penaltyLow <= penaltyDef {
		t.Errorf("redundancy penalty at low query rate (%.1f%%) should exceed default (%.1f%%)",
			100*penaltyLow, 100*penaltyDef)
	}
}

// TestKRedundancyLoadScaling: the extension beyond the paper — per-partner
// query load falls roughly as 1/k while client join traffic grows as k.
func TestKRedundancyLoadScaling(t *testing.T) {
	prof := lowVarProfile()
	load := func(k int) (sp, clientOut float64) {
		cfg := network.Config{GraphType: network.Strong, GraphSize: 2000,
			ClusterSize: 100, KRedundancy: k, TTL: 1}
		sum, err := RunTrials(cfg, prof, 15, 42)
		if err != nil {
			t.Fatal(err)
		}
		return sum.SuperPeer.InBps.Mean + sum.SuperPeer.OutBps.Mean,
			sum.Client.OutBps.Mean
	}
	sp1, cl1 := load(1)
	sp3, cl3 := load(3)
	if ratio := sp3 / sp1; ratio > 0.55 || ratio < 0.25 {
		t.Errorf("per-partner bandwidth at k=3 is %.2fx of k=1, want ~1/3", ratio)
	}
	if ratio := cl3 / cl1; ratio < 2.3 || ratio > 3.7 {
		t.Errorf("client out at k=3 is %.2fx of k=1, want ~3x (joins to every partner)", ratio)
	}
}

// TestKRedundancySimMatchesAnalysis cross-checks k=3 between the two engines.
func TestKRedundancyAggregateConserved(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 400,
		ClusterSize: 10, KRedundancy: 3, AvgOutdegree: 3.1, TTL: 5}
	res := evalCfgProf(t, cfg, lowVarProfile(), 7)
	agg := res.AggregateLoad()
	if relDiff(agg.InBps, agg.OutBps) > 1e-9 {
		t.Errorf("k=3: aggregate in %v != out %v", agg.InBps, agg.OutBps)
	}
}
