package experiments

import (
	"spnet/internal/analysis"
	"spnet/internal/network"
	"spnet/internal/workload"
)

// sweepSystem describes one curve of a cluster-size sweep.
type sweepSystem struct {
	label     string
	graphType network.GraphType
	partners  int // k of k-redundancy
	outdegree float64
	ttl       int
}

// paperSweepSystems returns the four systems of Figures 4–5: the strongly
// connected best case with TTL 1, and the Gnutella-like power-law topology
// with average outdegree 3.1 and TTL 7, each with and without 2-redundancy.
func paperSweepSystems() []sweepSystem {
	return []sweepSystem{
		{"Strong", network.Strong, 1, 0, 1},
		{"Strong, Redundancy", network.Strong, 2, 0, 1},
		{"Power, Avg Outdeg=3.1", network.PowerLaw, 1, 3.1, 7},
		{"Power, Avg Outdeg=3.1, Redundancy", network.PowerLaw, 2, 3.1, 7},
	}
}

// metricFn extracts one plotted value from a trial summary.
type metricFn func(*analysis.TrialSummary) (value, ci float64)

// clusterSweep evaluates the systems over the cluster-size ladder and
// extracts the metric. Sweep points are independent (each keys its own seed),
// so they dispatch to the worker pool and reduce in task order.
func clusterSweep(p Params, prof *workload.Profile, systems []sweepSystem,
	sizes []int, graphSize, trials int, metric metricFn) ([]Series, error) {

	type task struct {
		si, cs int
	}
	var tasks []task
	for si := range systems {
		for _, cs := range sizes {
			if cs < systems[si].partners {
				continue
			}
			tasks = append(tasks, task{si, cs})
		}
	}
	type point struct {
		v, ci float64
	}
	pts, err := pmap(p, "cluster sizes", len(tasks), func(i int) (point, error) {
		t := tasks[i]
		sys := systems[t.si]
		cfg := network.Config{
			GraphType:    sys.graphType,
			GraphSize:    graphSize,
			ClusterSize:  t.cs,
			KRedundancy:  sys.partners,
			AvgOutdegree: sys.outdegree,
			TTL:          sys.ttl,
		}
		if cfg.GraphType == network.PowerLaw && float64(cfg.NumClusters()-1) < cfg.AvgOutdegree {
			// Too few clusters to sustain the suggested outdegree: the
			// overlay degenerates to (nearly) a clique.
			cfg.GraphType = network.Strong
		}
		sum, err := analysis.RunTrialsWorkers(cfg, prof, trials,
			p.Seed+uint64(t.si)*1000+uint64(t.cs), p.Workers)
		if err != nil {
			return point{}, err
		}
		v, ci := metric(sum)
		return point{v, ci}, nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]Series, 0, len(systems))
	for si := range systems {
		s := Series{Label: systems[si].label}
		for i, t := range tasks {
			if t.si != si {
				continue
			}
			s.X = append(s.X, float64(t.cs))
			s.Y = append(s.Y, pts[i].v)
			s.YErr = append(s.YErr, pts[i].ci)
		}
		out = append(out, s)
	}
	return out, nil
}

// runFig4 reproduces Figure 4: aggregate bandwidth (in + out) as cluster
// size varies, for the four paper systems. Expected shape: steep decrease,
// then a knee, then gradual decline; redundancy barely moves the curves.
func runFig4(p Params) (*Report, error) {
	return clusterBandwidthReport(p, workload.DefaultProfile(),
		"aggregate bandwidth (in+out, bps) vs cluster size",
		func(s *analysis.TrialSummary) (float64, float64) {
			return s.Aggregate.InBps.Mean + s.Aggregate.OutBps.Mean,
				s.Aggregate.InBps.CI95 + s.Aggregate.OutBps.CI95
		})
}

// runFig5 reproduces Figure 5: individual super-peer incoming bandwidth as
// cluster size varies. Expected shape: growth with cluster size, an f(1-f)
// hump peaking near half the network, and a drop at cluster = network size.
func runFig5(p Params) (*Report, error) {
	return clusterBandwidthReport(p, workload.DefaultProfile(),
		"individual super-peer incoming bandwidth (bps) vs cluster size",
		func(s *analysis.TrialSummary) (float64, float64) {
			return s.SuperPeer.InBps.Mean, s.SuperPeer.InBps.CI95
		})
}

func clusterBandwidthReport(p Params, prof *workload.Profile, note string,
	metric metricFn) (*Report, error) {

	graphSize := p.scaled(10000, 200)
	series, err := clusterSweep(p, prof, paperSweepSystems(),
		clusterSizeLadder(graphSize), graphSize, p.trials(3), metric)
	if err != nil {
		return nil, err
	}
	return &Report{
		Notes:  []string{note, "graph size " + fmtEng(float64(graphSize)) + " peers"},
		Series: series,
	}, nil
}

// runFig6 reproduces Figure 6: individual super-peer processing load over
// the small-cluster range, where the strongly connected topology's
// connection overhead produces the characteristic uptick at tiny clusters.
func runFig6(p Params) (*Report, error) {
	graphSize := p.scaled(10000, 300)
	sizes := []int{}
	for _, cs := range []int{1, 2, 3, 5, 8, 10, 15, 20, 30, 50, 75, 100, 150, 200, 250, 300} {
		if cs <= graphSize {
			sizes = append(sizes, cs)
		}
	}
	series, err := clusterSweep(p, workload.DefaultProfile(), paperSweepSystems(),
		sizes, graphSize, p.trials(3),
		func(s *analysis.TrialSummary) (float64, float64) {
			return s.SuperPeer.ProcHz.Mean, s.SuperPeer.ProcHz.CI95
		})
	if err != nil {
		return nil, err
	}
	return &Report{
		Notes: []string{
			"individual super-peer processing load (Hz) vs cluster size",
			"the strong topology rises at very small clusters: packet-multiplex overhead of clusters-1 open connections",
		},
		Series: series,
	}, nil
}

// runFigA13 is Figure A-13: the Figure 4 sweep at a tenfold lower query
// rate, where joins dominate and large clusters save much less.
func runFigA13(p Params) (*Report, error) {
	prof := workload.DefaultProfile()
	prof.Rates = workload.LowQueryRates()
	rep, err := clusterBandwidthReport(p, prof,
		"aggregate bandwidth (bps) vs cluster size at query rate 9.26e-4 (query:join ≈ 1)",
		func(s *analysis.TrialSummary) (float64, float64) {
			return s.Aggregate.InBps.Mean + s.Aggregate.OutBps.Mean,
				s.Aggregate.InBps.CI95 + s.Aggregate.OutBps.CI95
		})
	return rep, err
}

// runFigA14 is Figure A-14: individual incoming bandwidth at the lower query
// rate; join traffic makes load peak at cluster = network size instead.
func runFigA14(p Params) (*Report, error) {
	prof := workload.DefaultProfile()
	prof.Rates = workload.LowQueryRates()
	return clusterBandwidthReport(p, prof,
		"individual super-peer incoming bandwidth (bps) vs cluster size at query rate 9.26e-4",
		func(s *analysis.TrialSummary) (float64, float64) {
			return s.SuperPeer.InBps.Mean, s.SuperPeer.InBps.CI95
		})
}
