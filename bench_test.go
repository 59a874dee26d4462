// Benchmarks: one per paper table/figure (regenerating the artifact at
// reduced scale; run the CLI with -scale 1 for full paper scale), plus
// micro-benchmarks of the core engines. Custom metrics report the headline
// quantity each artifact measures so `go test -bench=.` doubles as a
// compact reproduction run.
package spnet_test

import (
	"fmt"
	"testing"
	"time"

	"spnet"
)

// benchParams shrink the networks so a full -bench=. sweep stays fast while
// preserving every experiment's shape.
func benchParams() spnet.ExperimentParams {
	return spnet.ExperimentParams{Scale: 0.05, Trials: 1, Seed: 1}
}

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := spnet.RunExperiment(id, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 && len(rep.Series) == 0 {
			b.Fatal("empty report")
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B)  { benchmarkExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchmarkExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchmarkExperiment(b, "table3") }
func BenchmarkFig4(b *testing.B)    { benchmarkExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)    { benchmarkExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { benchmarkExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)    { benchmarkExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)    { benchmarkExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)    { benchmarkExperiment(b, "fig9") }
func BenchmarkFig11(b *testing.B)   { benchmarkExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)   { benchmarkExperiment(b, "fig12") }
func BenchmarkRule4(b *testing.B)   { benchmarkExperiment(b, "rule4") }
func BenchmarkFigA13(b *testing.B)  { benchmarkExperiment(b, "figA13") }
func BenchmarkFigA14(b *testing.B)  { benchmarkExperiment(b, "figA14") }
func BenchmarkFigA15(b *testing.B)  { benchmarkExperiment(b, "figA15") }
func BenchmarkTableD2(b *testing.B) { benchmarkExperiment(b, "tableD2") }

// BenchmarkFig4Serial / BenchmarkFig4Parallel measure the Figure 4 sweep
// with the evaluation pool pinned to one worker versus all cores, at a
// larger scale so the per-point work dominates pool overhead. Parallel
// reports its speedup over a serial reference run as a custom metric; on a
// single-core host the two are equivalent and the speedup reads ~1.
func fig4BenchParams(workers int) spnet.ExperimentParams {
	return spnet.ExperimentParams{Scale: 0.2, Trials: 2, Seed: 1, Workers: workers}
}

func BenchmarkFig4Serial(b *testing.B) {
	p := fig4BenchParams(1)
	for i := 0; i < b.N; i++ {
		if _, err := spnet.RunExperiment("fig4", p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Parallel(b *testing.B) {
	// One untimed serial run as the speedup reference.
	serialStart := time.Now()
	if _, err := spnet.RunExperiment("fig4", fig4BenchParams(1)); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(serialStart)

	p := fig4BenchParams(0) // all cores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spnet.RunExperiment("fig4", p); err != nil {
			b.Fatal(err)
		}
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(serial)/float64(perOp), "speedup")
	}
}

// BenchmarkKRedundancy runs the general-k redundancy extension (an ablation
// of the paper's k=2 design choice).
func BenchmarkKRedundancy(b *testing.B) { benchmarkExperiment(b, "kredundancy") }

// BenchmarkReliability runs the failure-injection reliability extension.
func BenchmarkReliability(b *testing.B) { benchmarkExperiment(b, "reliability") }

// BenchmarkBreakdown runs the load-attribution ablation.
func BenchmarkBreakdown(b *testing.B) { benchmarkExperiment(b, "breakdown") }

func BenchmarkSimCheck(b *testing.B) {
	// The simulator cross-validation is the heaviest artifact; run it at an
	// extra-small scale for benchmarking.
	b.ReportAllocs()
	var total int
	var vsec float64
	for i := 0; i < b.N; i++ {
		rep, err := spnet.RunExperiment("simcheck",
			spnet.ExperimentParams{Scale: 0.03, Trials: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		// The report carries the run's size only in its note.
		var peers, clusters, queries, events int
		if _, err := fmt.Sscanf(rep.Notes[0],
			"%d peers, %d clusters; %g s of virtual time, %d queries, %d events",
			&peers, &clusters, &vsec, &queries, &events); err != nil {
			b.Fatalf("simcheck note %q: %v", rep.Notes[0], err)
		}
		total += events
	}
	reportSimEvents(b, total, vsec)
}

// reportSimEvents reports a simulator benchmark's throughput, events/wall-s,
// next to events/vsec — the scenario's event density per *virtual* second,
// which says nothing about speed. events is the total over all b.N runs of
// vsec virtual seconds each.
func reportSimEvents(b *testing.B, events int, vsec float64) {
	b.Helper()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/wall-s")
	b.ReportMetric(float64(events)/(vsec*float64(b.N)), "events/vsec")
}

// Core-engine micro-benchmarks.

// BenchmarkEvaluate measures the mean-value analysis (Steps 2-3) over a
// 2000-peer power-law instance: one BFS per source cluster plus response
// flow accumulation. bench/'s analysis-10k workload times the same at paper
// scale (analysis.evaluate_ms.10k), with instance generation and the clique
// fast path beside it.
func BenchmarkEvaluate(b *testing.B) {
	cfg := spnet.DefaultConfig()
	cfg.GraphSize = 2000
	inst, err := spnet.Generate(cfg, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var results float64
	for i := 0; i < b.N; i++ {
		res := spnet.Evaluate(inst)
		results = res.ResultsPerQuery
	}
	b.ReportMetric(results, "results/query")
}

// BenchmarkSimulate measures the discrete-event simulator's event
// throughput on a 500-peer network.
func BenchmarkSimulate(b *testing.B) {
	cfg := spnet.DefaultConfig()
	cfg.GraphSize = 500
	inst, err := spnet.Generate(cfg, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		m, err := spnet.Simulate(inst, spnet.SimOptions{
			Duration: 120, Seed: uint64(i), Churn: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		total += m.EventsExecuted
	}
	reportSimEvents(b, total, 120)
}

// BenchmarkDesign measures the Figure 10 global design procedure.
func BenchmarkDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := spnet.Design(
			spnet.Goals{NetworkSize: 2000, DesiredReach: 400},
			spnet.Constraints{MaxDownBps: 1e5, MaxUpBps: 1e5, MaxProcHz: 1e7, MaxConns: 100},
			spnet.DesignOptions{Trials: 1, Seed: uint64(i)},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureEPL measures the Figure 9 EPL probe.
func BenchmarkMeasureEPL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := spnet.MeasureEPL(1000, 10, 300, 1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
