package spnet_test

import (
	"fmt"
	"testing"

	"spnet"
)

// The flood protocol is the paper's protocol, and the routing-strategy layer
// was refactored under it with a bit-identical guarantee: every value below
// was captured (at full float precision) from the pre-refactor tree, and the
// default flood configuration must keep reproducing it exactly — across the
// analysis engine, its parallel trial runner at several worker counts, and
// the simulator's churn, content and adaptive modes. Any drift here means
// the refactor perturbed a float operation order or an RNG draw sequence.

func goldenConfig() spnet.Config {
	cfg := spnet.DefaultConfig()
	cfg.GraphSize = 400
	return cfg
}

func fmtLoad(l spnet.Load) string {
	return fmt.Sprintf("{%.17g %.17g %.17g}", l.InBps, l.OutBps, l.ProcHz)
}

func expect(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s:\n  got  %s\n  want %s", what, got, want)
	}
}

func TestGoldenTrialsBitIdenticalAcrossWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		ts, err := spnet.RunTrialsWorkers(goldenConfig(), nil, 3, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		w := fmt.Sprintf("workers=%d", workers)
		expect(t, w+" aggregate", fmtLoad(ts.Aggregate.Mean()),
			"{775549.92698227894 775549.92698227603 9133429.4499330893}")
		expect(t, w+" super-peer", fmtLoad(ts.SuperPeer.Mean()),
			"{16391.886610980026 18588.025055019127 211744.38234604741}")
		expect(t, w+" client", fmtLoad(ts.Client.Mean()),
			"{327.37495725645891 87.393930925475047 1812.0710844189771}")
		expect(t, w+" scalars",
			fmt.Sprintf("%.17g %.17g %.17g %.17g",
				ts.ResultsPerQuery.Mean, ts.EPL.Mean, ts.ReachClusters.Mean, ts.ReachPeers.Mean),
			"34.910027941176459 2.9832367343049349 39.985294117647051 406.20751633986924")
	}
}

func TestGoldenEvaluate(t *testing.T) {
	inst, err := spnet.Generate(goldenConfig(), nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	res := spnet.Evaluate(inst)
	expect(t, "aggregate", fmtLoad(res.AggregateLoad()),
		"{768575.48077298538 768575.48077298293 9177175.0869914014}")
	expect(t, "super-peer", fmtLoad(res.MeanSuperPeerLoad()),
		"{16243.912576339935 18366.671726274642 212780.9024569015}")
	expect(t, "client", fmtLoad(res.MeanClientLoad()),
		"{322.87765684615869 92.142966635861981 1809.6168171612553}")
	expect(t, "scalars",
		fmt.Sprintf("%.17g %.17g", res.ResultsPerQuery, res.EPL),
		"33.401699999999991 2.8681080968354564")
	cb := res.SuperPeerClassBps(0)
	expect(t, "super-peer 0 query/response bps",
		fmt.Sprintf("%.17g %.17g %.17g %.17g", cb[0][0], cb[0][1], cb[1][0], cb[1][1]),
		"14602.501439999993 42693.341119999983 59552.713028079481 62311.125020181971")

	// EvaluateWith without options is the flood evaluation.
	res2 := spnet.EvaluateWith(inst, spnet.EvalOptions{})
	expect(t, "EvaluateWith(zero) aggregate", fmtLoad(res2.AggregateLoad()),
		fmtLoad(res.AggregateLoad()))
}

func TestGoldenSimChurn(t *testing.T) {
	inst, err := spnet.Generate(goldenConfig(), nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spnet.Simulate(inst, spnet.SimOptions{Duration: 600, Seed: 12, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	expect(t, "aggregate", fmtLoad(m.Aggregate),
		"{780527.99999999977 780532.90666666685 9351012.2880003788}")
	expect(t, "mean super-peer", fmtLoad(m.MeanSuperPeer),
		"{16524.818666666666 18707.80133333334 217137.31200000935}")
	expect(t, "mean client", fmtLoad(m.MeanClient),
		"{324.82405797101467 87.556666666666672 1808.4777391304333}")
	expect(t, "scalars",
		fmt.Sprintf("%.17g %.17g %d %d", m.ResultsPerQuery, m.EPL, m.QueriesIssued, m.EventsExecuted),
		"31.886449978894049 2.8707034674566945 2369 304427")
	cb := m.SuperPeerClassBps[0]
	expect(t, "super-peer 0 query/response bps",
		fmt.Sprintf("%.17g %.17g %.17g %.17g", cb[0][0], cb[0][1], cb[1][0], cb[1][1]),
		"11110.800000000001 44609.893333333333 71335.626666666678 74279.253333333341")
}

func TestGoldenSimContent(t *testing.T) {
	inst, err := spnet.Generate(goldenConfig(), nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spnet.Simulate(inst, spnet.SimOptions{
		Duration: 400, Seed: 5, Churn: true, Content: &spnet.ContentOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	expect(t, "aggregate", fmtLoad(m.Aggregate),
		"{905721.3600000001 905721.36000000197 10559771.712001801}")
	expect(t, "scalars",
		fmt.Sprintf("%.17g %.17g %d %d", m.ResultsPerQuery, m.EPL, m.QueriesIssued, m.EventsExecuted),
		"52.36221009549795 2.8810593978058092 1466 189251")
}

func TestGoldenSimAdaptive(t *testing.T) {
	inst, err := spnet.Generate(goldenConfig(), nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spnet.Simulate(inst, spnet.SimOptions{
		Duration: 900, Seed: 3, Churn: true,
		Adaptive: &spnet.AdaptiveOptions{
			Limit:       spnet.Load{InBps: 50_000, OutBps: 50_000, ProcHz: 1e6},
			Interval:    60,
			ArrivalRate: 0.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	expect(t, "aggregate", fmtLoad(m.Aggregate),
		"{1273263.2355555568 1266287.3066666659 17016712.256001357}")
	expect(t, "scalars",
		fmt.Sprintf("%d %d %d %d %.17g %.17g",
			m.QueriesIssued, m.EventsExecuted, m.FinalClusters, m.FinalPeers,
			m.FinalMeanTTL, m.FinalMeanOutdegree),
		"4054 980026 39 566 4.384615384615385 7.8461538461538458")
}

// The three goldens below pin the schedule call sites the churn, content and
// adaptive goldens never reach: failure clocks and recovery timers, replayed
// fault schedules, strategy-selected forwarding, and the adversary's
// observation timers.

func simScalars(m *spnet.Measured) string {
	return fmt.Sprintf("%d %d %d %d %d",
		m.QueriesIssued, m.EventsExecuted, m.QueriesForwarded, m.FailuresInjected, m.ClientQueriesLost)
}

func TestGoldenSimFailures(t *testing.T) {
	// Stochastic MTBF clocks on single-partner clusters: whole-cluster
	// outages, lost client queries, recoverCluster.
	inst, err := spnet.Generate(goldenConfig(), nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spnet.Simulate(inst, spnet.SimOptions{
		Duration: 600, Seed: 21, Churn: true,
		Failures: &spnet.FailureOptions{MTBF: 400, RecoveryDelay: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	expect(t, "mtbf aggregate", fmtLoad(m.Aggregate), "{545142.34666666714 545240.93333333358 6248609.6400012737}")
	expect(t, "mtbf scalars", simScalars(m), "1931 185558 120813 53 253")

	// A replayed fault schedule on 2-redundant clusters: the co-partner
	// carries on and replacePartner restores the redundancy level.
	cfg := goldenConfig()
	cfg.Redundancy = true
	inst, err = spnet.Generate(cfg, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	sched := spnet.ExponentialFailureSchedule(22, len(inst.Clusters), 2, 300, 600)
	m, err = spnet.Simulate(inst, spnet.SimOptions{
		Duration: 600, Seed: 23, Churn: true,
		Failures: &spnet.FailureOptions{RecoveryDelay: 45, Schedule: sched},
	})
	if err != nil {
		t.Fatal(err)
	}
	expect(t, "replay aggregate", fmtLoad(m.Aggregate), "{469627.52000000019 493124.18666666676 5056043.5920001147}")
	expect(t, "replay scalars", simScalars(m), "2076 247961 159368 146 59")
}

func TestGoldenSimRouting(t *testing.T) {
	inst, err := spnet.Generate(goldenConfig(), nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := spnet.ParseRouting("randomwalk:2")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spnet.Simulate(inst, spnet.SimOptions{
		Duration: 600, Seed: 31, Churn: true, Routing: walk,
	})
	if err != nil {
		t.Fatal(err)
	}
	expect(t, "aggregate", fmtLoad(m.Aggregate),
		"{150441.06666666665 150443.57333333336 1658424.9840000148}")
	expect(t, "scalars",
		fmt.Sprintf("%s %s %.17g %.17g", m.Strategy, simScalars(m), m.ResultsPerQuery, m.EPL),
		"randomwalk 2215 38952 17726 0 0 6.8699774266365692 3.0533106960950764")
}

func TestGoldenSimAdversary(t *testing.T) {
	cfg := goldenConfig()
	cfg.Redundancy = true
	inst, err := spnet.Generate(cfg, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spnet.Simulate(inst, spnet.SimOptions{
		Duration: 600, Seed: 41, Churn: true,
		Adversary: &spnet.AdversaryOptions{Fraction: 0.3, Drop: 0.5, Forge: 0.5, Trust: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	expect(t, "aggregate", fmtLoad(m.Aggregate),
		"{833258.26666666684 833503.89333333366 9982353.7679989263}")
	expect(t, "scalars", simScalars(m), "2297 287445 187048 0 0")
	expect(t, "adversary accounting",
		fmt.Sprintf("%d %d %d %d %d %d %d %.17g %.17g",
			m.QueriesDroppedMalicious, m.RelayDropsMalicious, m.ForgedResponses,
			m.ForgedAccepted, m.ForgedDetected, m.ClientQueriesTracked,
			m.ClientQueriesUnanswered, m.GenuineResultsPerQuery, m.SpreadP90),
		"100 4634 4615 0 4613 1856 171 35.297413793103445 122")
}
