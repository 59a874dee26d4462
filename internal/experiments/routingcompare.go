package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/routing"
	"spnet/internal/sim"
	"spnet/internal/stats"
	"spnet/internal/topology"
)

// RoutingCompareParams shape the routing-strategy comparison: the same star
// overlay with planted per-cluster content is priced analytically
// (EvaluateWith), simulated (SimOptions.Routing) and run as live TCP
// super-peers (NodeOptions.Routing), and each strategy's forwarded-query
// bandwidth and recall are reported against the flood baseline.
//
// The topology is a star of Leaves leaf super-peers around one hub, TTL 2, so
// every query can reach every cluster under flooding. Cluster c's clients all
// share files titled "topic<c>" and queries ask for a uniformly random
// cluster's topic — content is perfectly partitioned, which makes ground
// truth exact: every query has ClientsPerCluster matching files, all in one
// cluster. Content-aware strategies can then prove their best case (prune
// every barren branch, keep full recall) while content-blind ones expose the
// bandwidth/recall trade honestly.
type RoutingCompareParams struct {
	// Leaves is the number of leaf super-peers around the hub (default 4).
	Leaves int
	// ClientsPerCluster is how many clients join each super-peer, each
	// sharing one file of the cluster's topic (default 3).
	ClientsPerCluster int
	// Strategies lists the routing specs to compare (default all built-ins:
	// flood, randomwalk, routingindex, learned). Flood is always included
	// as the baseline even if absent from the list.
	Strategies []string
	// SimDuration is the simulator run length in virtual seconds
	// (default 4000).
	SimDuration float64
	// QueryRate is each simulated user's Poisson query rate per virtual
	// second (default 0.05).
	QueryRate float64
	// LiveQueries is how many measured queries the live layer issues
	// (default 120). Learned strategies additionally get LiveQueries*2/3
	// unmeasured warmup queries to accumulate hit history.
	LiveQueries int
	// QueryWindow is how long each live search collects results
	// (default 80ms).
	QueryWindow time.Duration
	// Seed drives every random choice: simulator streams, live query
	// schedules, and randomized strategies.
	Seed uint64
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

func (p *RoutingCompareParams) setDefaults() {
	if p.Leaves <= 0 {
		p.Leaves = 4
	}
	if p.ClientsPerCluster <= 0 {
		p.ClientsPerCluster = 3
	}
	if len(p.Strategies) == 0 {
		p.Strategies = []string{"flood", "randomwalk", "routingindex", "learned"}
	}
	if p.SimDuration <= 0 {
		p.SimDuration = 4000
	}
	if p.QueryRate <= 0 {
		p.QueryRate = 0.05
	}
	if p.LiveQueries <= 0 {
		p.LiveQueries = 120
	}
	if p.QueryWindow <= 0 {
		p.QueryWindow = 80 * time.Millisecond
	}
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
}

// clusters returns the total super-peer count: hub + leaves.
func (p *RoutingCompareParams) clusters() int { return p.Leaves + 1 }

func routingTopic(cluster int) string { return fmt.Sprintf("topic%d", cluster) }

// topicContent is the simulator's side of topic-partitioned content over n
// clusters: every file of cluster c is titled routingTopic(c) and every query
// asks for a uniformly random cluster's topic.
func topicContent(n int) *sim.ContentOptions {
	return &sim.ContentOptions{
		Titles:  func(cluster, owner, file int) []string { return []string{routingTopic(cluster)} },
		Queries: func(rng *stats.RNG) []string { return []string{routingTopic(rng.Intn(n))} },
	}
}

// instance builds the star instance all three layers share: node 0 is the
// hub, nodes 1..Leaves connect to it. Every cluster has one partner with no
// files and ClientsPerCluster clients with one topic file each; a query
// matches a cluster's index with probability 1/clusters and then returns all
// ClientsPerCluster files.
func (p *RoutingCompareParams) instance() (*network.Instance, error) {
	return network.NewPlanted(network.Planted{
		Graph:     topology.Star(p.Leaves),
		Partners:  1,
		Clients:   p.ClientsPerCluster,
		Topics:    p.clusters(),
		QueryRate: p.QueryRate,
		QueryLen:  len(routingTopic(0)),
		TTL:       2,
	})
}

// routingForwardModel returns the analytic forward model for a strategy spec
// on the star: how many query copies a node forwards at the source and at a
// relay, in expectation over the uniform topic workload.
//
// Flood is nil (the engine's exact evaluation). Random walks use the generic
// k-walker model. For the content-aware strategies the star has a closed
// form: a source forwards one copy unless the query's topic is its own
// cluster's (probability 1/n), and the hub relays a leaf's query to exactly
// one leaf unless the topic is the hub's own (conditional probability
// 1/(n-1) given it was forwarded at all):
//
//	source = 1 - 1/n        relay = (n-2)/(n-1)
//
// The learned strategy converges to the same decisions once every
// neighbor×term pair has history, so it shares the constants — its model is
// the steady state, not the exploration phase.
func routingForwardModel(spec string, n int) (*routing.Forwards, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "flood":
		return nil, nil
	case "randomwalk":
		k := routing.DefaultWalkers
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("routingcompare: bad walker count %q", spec)
			}
			k = v
		}
		return routing.RandomWalkForwards(k), nil
	case "routingindex", "learned":
		source := 1 - 1/float64(n)
		relay := float64(n-2) / float64(n-1)
		return routing.ConstForwards(name, source, relay), nil
	default:
		return nil, fmt.Errorf("routingcompare: no analytic model for %q", spec)
	}
}

// RoutingCompareCell is one layer's measurement of one strategy.
type RoutingCompareCell struct {
	// ForwardsPerQuery is the mean number of query copies sent over overlay
	// links per query — the bandwidth knob.
	ForwardsPerQuery float64
	// Recall is the fraction of matching files found, relative to the
	// ground truth of ClientsPerCluster matches per query. The analytic
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

// BandwidthSaved returns the fractional reduction in forwarded query copies
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

// runRoutingSim simulates one strategy over the shared instance and returns
// forwards per query and recall against the planted ground truth.
func runRoutingSim(p *RoutingCompareParams, inst *network.Instance, spec string) (RoutingCompareCell, error) {
	var cell RoutingCompareCell
	strat, err := routing.Parse(spec)
	if err != nil {
		return cell, err
	}
	m, err := sim.Run(inst, sim.Options{
		Duration: p.SimDuration,
		Seed:     p.Seed + 1,
		Routing:  strat,
		Content:  topicContent(p.clusters()),
	})
	if err != nil {
		return cell, err
	}
	if m.QueriesIssued == 0 {
		return cell, fmt.Errorf("routingcompare: simulator issued no queries")
	}
	cell.ForwardsPerQuery = float64(m.QueriesForwarded) / float64(m.QueriesIssued)
	cell.Recall = m.ResultsPerQuery / float64(p.ClientsPerCluster)
	return cell, nil
}

// runRoutingLive boots the instance's overlay as a live fleet under one
// strategy, drives a seeded query schedule through real client connections,
// and measures forwards per query from the spnet_queries_forwarded_total
// counters and recall from collected results.
func runRoutingLive(p *RoutingCompareParams, inst *network.Instance, spec string) (RoutingCompareCell, error) {
	var cell RoutingCompareCell
	strat, err := routing.Parse(spec)
	if err != nil {
		return cell, err
	}
	n := p.clusters()
	c := p.ClientsPerCluster

	f, err := launchFleet(network.LiveConfig{
		Overlay:  inst.Graph,
		Partners: 1,
		Seed:     p.Seed,
		Node: p2p.Options{
			TTL:               inst.Config.TTL,
			HeartbeatInterval: -1,
			DrainTimeout:      200 * time.Millisecond,
			Routing:           strat, // strategies are values; state is per node
		},
	}, 0, p.Logf)
	if err != nil {
		return cell, fmt.Errorf("routingcompare: %w", err)
	}
	defer f.close()
	err = f.dial(c, func(v, i int) (p2p.DialOptions, []p2p.SharedFile) {
		return p2p.DialOptions{}, []p2p.SharedFile{{Index: uint32(i + 1), Title: routingTopic(v)}}
	})
	if err != nil {
		return cell, fmt.Errorf("routingcompare: %w", err)
	}
	// Routing-index adverts have propagated once the hub holds one summary
	// per leaf and every leaf holds the hub's aggregate covering all other
	// clusters' topics: Leaves terms either way.
	if err := f.settle(p.Leaves); err != nil {
		return cell, fmt.Errorf("routingcompare: %w", err)
	}

	search := func(rng *stats.RNG) int {
		src := rng.Intn(n)
		cli := rng.Intn(c)
		topic := routingTopic(rng.Intn(n))
		out, err := f.clients[src][cli].SearchDetailed(topic, p.QueryWindow)
		if err != nil {
			p.Logf("routingcompare: live query %s from cluster %d: %v", topic, src, err)
			return 0
		}
		return len(out.Results)
	}

	// Learned routing needs history before its scores mean anything; give it
	// an unmeasured warmup pass over the same kind of workload.
	if routing.Learns(strat) {
		warm := stats.NewRNG(p.Seed + 202)
		for q := 0; q < p.LiveQueries*2/3; q++ {
			search(warm)
		}
	}

	forwarded := func() int64 {
		var sum int64
		for v := 0; v < n; v++ {
			sum += f.live.Node(v, 0).Metrics().QueriesForwarded.Value()
		}
		return sum
	}
	base := forwarded()

	rng := stats.NewRNG(p.Seed + 101)
	found := 0.0
	for q := 0; q < p.LiveQueries; q++ {
		found += float64(search(rng))
	}
	// Drain so in-flight relays land in the counters before the read.
	time.Sleep(100 * time.Millisecond)

	cell.ForwardsPerQuery = float64(forwarded()-base) / float64(p.LiveQueries)
	cell.Recall = found / float64(p.LiveQueries*c)
	return cell, nil
}

// RunRoutingCompareResult executes the full three-way strategy comparison
// and returns both the rows and the printable report.
func RunRoutingCompareResult(p RoutingCompareParams) (*RoutingCompareResult, error) {
	p.setDefaults()
	n := p.clusters()

	specs := p.Strategies
	hasFlood := false
	for _, s := range specs {
		if s == "flood" {
			hasFlood = true
		}
	}
	if !hasFlood {
		specs = append([]string{"flood"}, specs...)
	}

	inst, err := p.instance()
	if err != nil {
		return nil, err
	}
	floodRes := analysis.Evaluate(inst)
	if floodRes.ResultsPerQuery <= 0 {
		return nil, fmt.Errorf("routingcompare: flood model expects no results")
	}

	rows := make([]RoutingCompareRow, 0, len(specs))
	for _, spec := range specs {
		p.Logf("routingcompare: strategy %s", spec)
		fw, err := routingForwardModel(spec, n)
		if err != nil {
			return nil, err
		}
		res := analysis.EvaluateWith(inst, analysis.Options{Forwards: fw})
		model := RoutingCompareCell{
			ForwardsPerQuery: res.QueryForwardsPerQuery,
			Recall:           res.ResultsPerQuery / floodRes.ResultsPerQuery,
		}
		// The engine's strategy evaluation spreads forwards uniformly over
		// neighbors — right for content-blind strategies, pessimistic for
		// content-aware ones, whose conservative summaries provably never
		// prune a matching branch. Their analytic recall is exact: 1.
		if fw != nil && (strings.HasPrefix(spec, "routingindex") || strings.HasPrefix(spec, "learned")) {
			model.Recall = 1
		}
		simCell, err := runRoutingSim(&p, inst, spec)
		if err != nil {
			return nil, err
		}
		liveCell, err := runRoutingLive(&p, inst, spec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RoutingCompareRow{
			Strategy: spec,
			Model:    model,
			Sim:      simCell,
			Live:     liveCell,
		})
	}

	flood := rows[0]
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

	report := &Report{
		ID:    "routingcompare",
		Title: "Extension: query-routing strategies — bandwidth saved vs recall lost, three ways",
		Notes: []string{
			fmt.Sprintf("star overlay: %d leaves around one hub, TTL 2, %d clients per super-peer, topic-partitioned content",
				p.Leaves, p.ClientsPerCluster),
			fmt.Sprintf("simulated %g virtual s per strategy; live layer issued %d measured queries per strategy",
				p.SimDuration, p.LiveQueries),
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
	rp := RoutingCompareParams{Seed: p.Seed}
	if p.Scale > 0 && p.Scale < 1 {
		rp.SimDuration = max(400, 4000*p.Scale)
		rp.LiveQueries = max(24, int(120*p.Scale))
	}
	res, err := RunRoutingCompareResult(rp)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}
