package experiments

import (
	"fmt"
	"slices"
	"time"

	"spnet/internal/network"
	"spnet/internal/topology"
)

// routingScenario is the routing-strategy comparison's star: the same
// overlay with planted per-cluster content is priced analytically
// (EvaluateWith), simulated (sim.Options.Routing) and run as live TCP
// super-peers (p2p.Options.Routing), and each strategy's forwarded-query
// bandwidth and recall are reported against the flood baseline.
//
// Node 0 is the hub of 4 leaf super-peers, TTL 2, so every query can reach
// every cluster under flooding. Cluster c's 3 clients all share files titled
// "topic<c>" and queries ask for a uniformly random cluster's topic — content
// is perfectly partitioned, which makes ground truth exact: every query has 3
// matching files, all in one cluster. Content-aware strategies can then
// prove their best case (prune every barren branch, keep full recall) while
// content-blind ones expose the bandwidth/recall trade honestly. The
// simulator has always run at seed+1.
func routingScenario(seed uint64) Scenario {
	const leaves = 4
	return Scenario{
		Planted: network.Planted{
			Graph:     topology.Star(leaves),
			Partners:  1,
			Clients:   3,
			Topics:    leaves + 1,
			QueryRate: 0.05,
			QueryLen:  len(routingTopic(0)),
			TTL:       2,
		},
		SimDuration: 4000,
		Live:        LiveLoad{Duration: 300, TimeScale: 100, Window: 80 * time.Millisecond},
		Seed:        seed + 1,
	}
}

// routingStrategies is the comparison's strategy axis: every built-in.
var routingStrategies = []string{"flood", "randomwalk", "routingindex", "learned"}

// RoutingCompareCell is one layer's measurement of one strategy.
type RoutingCompareCell struct {
	// ForwardsPerQuery is the mean number of query copies sent over overlay
	// links per query — the bandwidth knob.
	ForwardsPerQuery float64
	// Recall is the fraction of matching files found, relative to the
	// ground truth of Planted.Clients matches per query. The analytic
	// column derives it from the model's expected results ratio vs flood
	// (content-aware strategies keep 1.0 by construction: their summaries
	// are conservative, so they never prune a matching branch).
	Recall float64
}

// RoutingCompareRow is one strategy measured three ways.
type RoutingCompareRow struct {
	Strategy string
	Model    RoutingCompareCell
	Sim      RoutingCompareCell
	Live     RoutingCompareCell
}

// bandwidthSaved returns the fractional reduction in forwarded query copies
// vs the flood baseline in the same layer.
func bandwidthSaved(strategy, flood float64) float64 {
	if flood <= 0 {
		return 0
	}
	return 1 - strategy/flood
}

// RoutingCompareResult carries the comparison rows alongside the printable
// report, for tests to assert the bandwidth/recall trade on.
type RoutingCompareResult struct {
	Rows   []RoutingCompareRow
	Report *Report
}

// Row returns the row for a strategy spec, or nil.
func (r *RoutingCompareResult) Row(strategy string) *RoutingCompareRow {
	for i := range r.Rows {
		if r.Rows[i].Strategy == strategy {
			return &r.Rows[i]
		}
	}
	return nil
}

// runRoutingCompare runs base once per strategy — flood, the baseline, first
// even if absent from the list — and returns both the rows and the
// printable report.
func runRoutingCompare(base Scenario, strategies []string) (*RoutingCompareResult, error) {
	if !slices.Contains(strategies, "flood") {
		strategies = append([]string{"flood"}, strategies...)
	}
	runs := make([]*ThreeWay, len(strategies))
	floodRun := -1
	for i, spec := range strategies {
		base.logf("routingcompare: strategy %s", spec)
		s := base
		s.Strategy = spec
		tw, err := runThreeWay(s)
		if err != nil {
			return nil, fmt.Errorf("routingcompare: %s: %w", spec, err)
		}
		if tw.Sim.QueriesIssued == 0 {
			return nil, fmt.Errorf("routingcompare: %s: simulator issued no queries", spec)
		}
		runs[i] = tw
		if spec == "flood" {
			floodRun = i
		}
	}
	floodResults := runs[floodRun].Model.ResultsPerQuery
	if floodResults <= 0 {
		return nil, fmt.Errorf("routingcompare: flood model expects no results")
	}

	matches := float64(base.Planted.Clients)
	rows := make([]RoutingCompareRow, len(strategies))
	for i, tw := range runs {
		rows[i] = RoutingCompareRow{
			Strategy: strategies[i],
			Model: RoutingCompareCell{
				ForwardsPerQuery: tw.Model.QueryForwardsPerQuery,
				Recall:           tw.Model.ResultsPerQuery / floodResults,
			},
			Sim: RoutingCompareCell{
				ForwardsPerQuery: ratio(tw.Sim.QueriesForwarded, tw.Sim.QueriesIssued),
				Recall:           tw.Sim.ResultsPerQuery / matches,
			},
			Live: RoutingCompareCell{
				ForwardsPerQuery: tw.Live.ForwardsPerQuery(),
				Recall:           ratio(tw.Live.Results, tw.Live.Queries) / matches,
			},
		}
		// The engine's strategy evaluation spreads forwards uniformly over
		// neighbors — right for content-blind strategies, pessimistic for
		// content-aware ones. Their analytic recall is exact: 1.
		if tw.ContentAware {
			rows[i].Model.Recall = 1
		}
	}

	flood := rows[floodRun]
	columns := []string{
		"strategy",
		"fwd/query model", "fwd/query sim", "fwd/query live",
		"recall model", "recall sim", "recall live",
		"bw saved sim", "bw saved live",
	}
	tableRows := make([][]string, 0, len(rows))
	for _, r := range rows {
		tableRows = append(tableRows, []string{
			r.Strategy,
			fmt.Sprintf("%.2f", r.Model.ForwardsPerQuery),
			fmt.Sprintf("%.2f", r.Sim.ForwardsPerQuery),
			fmt.Sprintf("%.2f", r.Live.ForwardsPerQuery),
			fmt.Sprintf("%.2f", r.Model.Recall),
			fmt.Sprintf("%.2f", r.Sim.Recall),
			fmt.Sprintf("%.2f", r.Live.Recall),
			fmt.Sprintf("%.0f%%", 100*bandwidthSaved(r.Sim.ForwardsPerQuery, flood.Sim.ForwardsPerQuery)),
			fmt.Sprintf("%.0f%%", 100*bandwidthSaved(r.Live.ForwardsPerQuery, flood.Live.ForwardsPerQuery)),
		})
	}

	p := base.Planted
	report := &Report{
		Notes: []string{
			fmt.Sprintf("star overlay: %d leaves around one hub, TTL %d, %d clients per super-peer, topic-partitioned content",
				p.Graph.N()-1, p.TTL, p.Clients),
			fmt.Sprintf("simulated %g virtual s per strategy; live layer replayed %g virtual s of every user's queries per strategy (%d under flood)",
				base.SimDuration, base.Live.Duration, runs[floodRun].Live.Queries),
			"fwd/query counts query copies on overlay links (spnet_queries_forwarded_total); recall is found results over planted matches",
			"model column: EvaluateWith forward models; content-aware recall is 1 by the conservative-summary argument",
		},
		Tables: []Table{{
			Title:   "per-strategy forwarded bandwidth and recall, model vs simulator vs live",
			Columns: columns,
			Rows:    tableRows,
		}},
	}
	return &RoutingCompareResult{Rows: rows, Report: report}, nil
}

// runRoutingCompareDefault adapts the generic experiment Params: Scale
// shortens the simulated and live windows proportionally.
func runRoutingCompareDefault(p Params) (*Report, error) {
	s := routingScenario(p.Seed)
	if p.Scale > 0 && p.Scale < 1 {
		s.SimDuration = max(400, 4000*p.Scale)
		s.Live.Duration = max(60, 300*p.Scale)
	}
	res, err := runRoutingCompare(s, routingStrategies)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}
