package main

import (
	"fmt"
	"runtime"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/design"
	"spnet/internal/network"
	"spnet/internal/stats"
	"spnet/internal/topology"
)

// designConstraints is the paper's Section 5.2 example: 100 Kbps each way,
// 10 MHz, 100 open connections.
var designConstraints = design.Constraints{MaxDownBps: 1e5, MaxUpBps: 1e5, MaxProcHz: 1e7, MaxConns: 100}

func runAnalysis(r *run) error {
	cfg := network.DefaultConfig()
	cfg.GraphSize = r.sz.analysisPeers
	r.params["config"] = cfg.String()
	r.params["instances"] = r.sz.analysisInstances
	r.params["design_reaches"] = r.sz.designReaches
	r.params["design_constraints"] = fmt.Sprintf("%+v", designConstraints)
	buf := r.tr.buffer()

	// Set-up: generate the instances and evaluate each once; those results
	// are the reference every measured Evaluate must reproduce. Several
	// instances, because one power-law draw costs up to 15% more to evaluate
	// than the next and a seed should not decide the result.
	insts := make([]*network.Instance, r.sz.analysisInstances)
	want := make([]float64, len(insts))
	_, err := r.setUp(func() (func(), error) {
		rng := stats.NewRNG(r.seed)
		for i := range insts {
			var err error
			buf.do("network.Generate", 0, func() {
				insts[i], err = network.Generate(cfg, nil, rng.Split(uint64(i)))
			})
			if err != nil {
				return nil, err
			}
			want[i] = analysis.Evaluate(insts[i]).ResultsPerQuery
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	inst := insts[0]

	// Measured window: rounds of a fixed mix. The design goals are small
	// reaches because those take the same decision path on every seed; at
	// reach 1500 one seed in three wanders into a 100x longer search.
	var roundMs, evalMs, designMs []float64
	w := timed(func() {
		deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
		for op := 1; time.Now().Before(deadline); op++ {
			r.attempted++
			ok := true
			t0 := time.Now()
			for i, inst := range insts {
				id := buf.begin("analysis.Evaluate", 0, op)
				t := time.Now()
				got := analysis.Evaluate(inst).ResultsPerQuery
				evalMs = append(evalMs, time.Since(t).Seconds()*1e3)
				buf.end(id)
				ok = ok && got == want[i] && got > 0
			}
			for _, reach := range r.sz.designReaches {
				id := buf.begin("design.Run", 0, op)
				t := time.Now()
				plan, e := design.Run(design.Goals{NetworkSize: r.sz.analysisPeers, DesiredReach: reach},
					designConstraints, design.Options{Trials: 1, Seed: r.seed})
				designMs = append(designMs, time.Since(t).Seconds()*1e3)
				buf.end(id)
				ok = ok && e == nil && plan.Predicted != nil && plan.Config.Validate() == nil
			}
			if !ok {
				r.failed++
				continue
			}
			roundMs = append(roundMs, time.Since(t0).Seconds()*1e3)
		}
	})
	if len(roundMs) == 0 {
		return fmt.Errorf("no round completed")
	}
	r.recordOps(float64(len(roundMs)), roundMs, w)
	r.info("evaluate_ms", stats.Percentile(evalMs, 50), "ms")
	r.info("design_ms", stats.Percentile(designMs, 50), "ms")
	if !r.trace {
		return nil
	}

	L := r.layer
	L["analysis.evaluate_ms.10k"] = stats.Percentile(evalMs, 50)
	L["design.run_ms"] = stats.Percentile(designMs, 50)
	buf.do("analysis.evaluate_allocs", 0, func() {
		mallocs, bytes := memDelta(func() { analysis.Evaluate(inst) })
		L["analysis.evaluate_allocs.10k"] = mallocs
		L["analysis.evaluate_mb.10k"] = bytes / 1e6
	})
	// The closed-form clique path at the cluster-size-1 extreme.
	clique, err := network.Generate(network.Config{GraphType: network.Strong, GraphSize: r.sz.analysisPeers, ClusterSize: 1, TTL: 1}, nil, stats.NewRNG(r.seed))
	if err != nil {
		return err
	}
	r.probeSpan(buf, "analysis.evaluate_clique_ms.10k", func() float64 {
		return perOpNs(func() { analysis.Evaluate(clique) }) / 1e6
	})
	// What the worker pool buys: the same 8 trials on 1 worker and on all.
	const trials = 8
	trialsPerS := func(workers int) func() float64 {
		return func() float64 {
			t := time.Now()
			if _, e := analysis.RunTrialsWorkers(cfg, nil, trials, r.seed, workers); e != nil {
				err = e
			}
			return trials / time.Since(t).Seconds()
		}
	}
	r.probeSpan(buf, "analysis.trials_per_s.w1", trialsPerS(1))
	r.probeSpan(buf, "analysis.trials_per_s.wmax", trialsPerS(runtime.GOMAXPROCS(0)))
	if err != nil {
		return err
	}
	L["analysis.trials_speedup"] = L["analysis.trials_per_s.wmax"] / L["analysis.trials_per_s.w1"]
	r.probeSpan(buf, "analysis.predict_transfer_us", func() float64 {
		return perOpNs(func() {
			analysis.PredictTransfer(analysis.TransferWorkload{FileSize: 64 << 20, ChunkSize: 64 << 10, Sources: 3, SourceRateBps: 1e6})
		}) / 1e3
	})
	state := design.LocalState{
		Load: analysis.Load{InBps: 8e4, OutBps: 9e4, ProcHz: 4e6}, Limit: analysis.Load{InBps: 1e5, OutBps: 1e5, ProcHz: 1e7},
		Clients: 9, Outdegree: 3, TTL: 7, MaxRespHops: 5,
	}
	r.probeSpan(buf, "design.advise_ns", func() float64 {
		return perOpNs(func() { design.Advise(state, design.Thresholds{}) })
	})

	r.probeSpan(buf, "network.generate_ms.10k", func() float64 {
		return perOpNs(func() { network.Generate(cfg, nil, stats.NewRNG(r.seed)) }) / 1e6
	})
	plod := topology.PLODParams{N: cfg.NumClusters(), AvgDeg: cfg.AvgOutdegree}
	g, err := topology.PowerLaw(plod, stats.NewRNG(r.seed))
	if err != nil {
		return err
	}
	r.probeSpan(buf, "topology.powerlaw_ms.1k", func() float64 {
		return perOpNs(func() { topology.PowerLaw(plod, stats.NewRNG(r.seed)) }) / 1e6
	})
	src := 0
	r.probeSpan(buf, "topology.bfs_us.1k", func() float64 {
		return perOpNs(func() { topology.BFS(g, src%g.N(), cfg.TTL, 0); src++ }) / 1e3
	})
	return nil
}
