package experiments

import (
	"fmt"
	"sort"

	"spnet/internal/analysis"
	"spnet/internal/design"
	"spnet/internal/network"
	"spnet/internal/stats"
)

// caseStudyConfigs returns the three Section 5.2 topologies at the requested
// scale: today's Gnutella (pure network, outdegree 3.1, TTL 7), the
// procedure's new design (cluster size 10, 18 super-peer neighbors, TTL 2),
// and the new design with 2-redundancy.
func caseStudyConfigs(p Params) (size int, configs []struct {
	label string
	cfg   network.Config
}) {
	size = p.scaled(20000, 2000)
	mk := func(label string, cfg network.Config) struct {
		label string
		cfg   network.Config
	} {
		return struct {
			label string
			cfg   network.Config
		}{label, cfg}
	}
	configs = []struct {
		label string
		cfg   network.Config
	}{
		mk("Today", network.Config{
			GraphType: network.PowerLaw, GraphSize: size, ClusterSize: 1,
			AvgOutdegree: 3.1, TTL: 7,
		}),
		mk("New", network.Config{
			GraphType: network.PowerLaw, GraphSize: size, ClusterSize: 10,
			AvgOutdegree: 18, TTL: 2,
		}),
		mk("New w/ Red.", network.Config{
			GraphType: network.PowerLaw, GraphSize: size, ClusterSize: 10,
			KRedundancy: 2, AvgOutdegree: 18, TTL: 2,
		}),
	}
	return size, configs
}

// runFig11 reproduces Figure 11: aggregate loads, results and EPL for
// today's Gnutella topology versus the design procedure's output. Expected
// shape: the new design improves every aggregate load by a large factor at
// slightly better result quality and much shorter EPL; redundancy barely
// changes the aggregates.
func runFig11(p Params) (*Report, error) {
	size, configs := caseStudyConfigs(p)
	trials := p.trials(3)
	rows := make([][]string, 0, len(configs))
	sums, err := pmap(p, "configurations", len(configs), func(i int) (*analysis.TrialSummary, error) {
		return analysis.RunTrialsWorkers(configs[i].cfg, nil, trials, p.Seed+uint64(i), p.Workers)
	})
	if err != nil {
		return nil, err
	}
	var todayIn, newIn float64
	for i, c := range configs {
		sum := sums[i]
		if i == 0 {
			todayIn = sum.Aggregate.InBps.Mean
		}
		if i == 1 {
			newIn = sum.Aggregate.InBps.Mean
		}
		rows = append(rows, []string{
			c.label,
			fmtEng(sum.Aggregate.InBps.Mean),
			fmtEng(sum.Aggregate.OutBps.Mean),
			fmtEng(sum.Aggregate.ProcHz.Mean),
			fmt.Sprintf("%.0f", sum.ResultsPerQuery.Mean),
			fmt.Sprintf("%.1f", sum.EPL.Mean),
			fmt.Sprintf("%.0f", sum.ReachPeers.Mean),
		})
	}
	improvement := 1 - newIn/todayIn
	rep := &Report{
		Notes: []string{
			fmt.Sprintf("network of %d peers; paper's design point: cluster 10, 18 neighbors, TTL 2", size),
			fmt.Sprintf("aggregate incoming-bandwidth improvement of the new design: %.0f%% (paper: >79%%)", 100*improvement),
		},
		Tables: []Table{{
			Columns: []string{"Topology", "Incoming BW (bps)", "Outgoing BW (bps)", "Processing (Hz)", "Results", "EPL", "Reach (peers)"},
			Rows:    rows,
		}},
	}

	// Also run the global design procedure itself on the same goals and
	// report the configuration it selects.
	plan, err := design.Run(
		design.Goals{NetworkSize: size, DesiredReach: p.scaled(3000, 300)},
		design.Constraints{MaxDownBps: 100_000, MaxUpBps: 100_000,
			MaxProcHz: 10_000_000, MaxConns: 100},
		design.Options{Trials: 1, Seed: p.Seed, Workers: p.Workers},
	)
	if err != nil {
		rep.Notes = append(rep.Notes, "design procedure: "+err.Error())
		return rep, nil
	}
	rep.Tables = append(rep.Tables, Table{
		Title:   "Global design procedure output (Figure 10) under the Section 5.2 constraints",
		Columns: []string{"Cluster Size", "Redundancy", "Avg Outdegree", "TTL", "SP In (bps)", "SP Out (bps)", "SP Proc (Hz)", "Reach (peers)"},
		Rows: [][]string{{
			fmt.Sprint(plan.Config.ClusterSize),
			fmt.Sprint(plan.Config.Redundant()),
			fmt.Sprintf("%.0f", plan.Config.AvgOutdegree),
			fmt.Sprint(plan.Config.TTL),
			fmtEng(plan.Predicted.SuperPeer.InBps.Mean),
			fmtEng(plan.Predicted.SuperPeer.OutBps.Mean),
			fmtEng(plan.Predicted.SuperPeer.ProcHz.Mean),
			fmt.Sprintf("%.0f", plan.Predicted.ReachPeers.Mean),
		}},
	})
	return rep, nil
}

// runFig12 reproduces Figure 12: the outgoing-bandwidth load of every node,
// ranked in decreasing order, for the three case-study topologies (one
// representative instance each). Expected shape: the bottom ~90% of the new
// topologies (the clients) sit one to two orders of magnitude below today's
// loads, and redundancy cuts the top decile further.
func runFig12(p Params) (*Report, error) {
	_, configs := caseStudyConfigs(p)
	percentiles := []float64{0.1, 1, 5, 10, 25, 50, 75, 80, 90, 95, 99, 100}
	series, err := pmap(p, "rank curves", len(configs), func(i int) (Series, error) {
		c := configs[i]
		inst, err := network.Generate(c.cfg, nil, stats.NewRNG(p.Seed+uint64(i)))
		if err != nil {
			return Series{}, err
		}
		res := analysis.Evaluate(inst)
		loads := res.AllNodeLoads()
		outs := make([]float64, len(loads))
		for j, nl := range loads {
			outs[j] = nl.Load.OutBps
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(outs)))
		s := Series{Label: c.label + " (rank percentile -> outgoing bps)"}
		for _, pct := range percentiles {
			idx := int(pct / 100 * float64(len(outs)-1))
			s.X = append(s.X, pct)
			s.Y = append(s.Y, outs[idx])
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Notes: []string{
			"outgoing bandwidth at rank percentiles (0% = heaviest node), one representative instance per topology",
		},
		Series: series,
	}, nil
}
