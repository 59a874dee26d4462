// Command spnet-sim runs the deterministic discrete-event, message-level
// super-peer simulator over a generated network and prints the measured
// loads, optionally with the Section 5.3 local decision rules adapting the
// topology live.
//
// Example — validate the analysis on the default configuration:
//
//	spnet-sim -size 2000 -duration 2000
//
// Example — adaptive mode with client arrivals:
//
//	spnet-sim -size 2000 -duration 3600 -adaptive -limit-bps 50000 \
//	          -limit-proc 1e6 -arrivals 0.5
package main

import (
	"flag"
	"fmt"
	"os"

	"spnet"
)

func main() {
	def := spnet.DefaultConfig()
	var (
		graphType  = flag.String("graph", "power", `overlay type: "power" or "strong"`)
		size       = flag.Int("size", 2000, "number of peers")
		cluster    = flag.Int("cluster", def.ClusterSize, "cluster size")
		redundancy = flag.Bool("redundancy", false, "2-redundant virtual super-peers")
		outdeg     = flag.Float64("outdeg", def.AvgOutdegree, "average super-peer outdegree")
		ttl        = flag.Int("ttl", def.TTL, "query TTL")
		duration   = flag.Float64("duration", 1800, "virtual seconds to simulate")
		seed       = flag.Uint64("seed", 1, "random seed")
		noChurn    = flag.Bool("no-churn", false, "disable session churn (join traffic)")
		contentOn  = flag.Bool("content", false, "answer queries from real inverted indexes over synthetic titles")
		routing    = flag.String("routing", "flood", `query-routing strategy: "flood", "randomwalk[:k]", "routingindex" or "learned"`)
		compare    = flag.Bool("compare", true, "also print the analysis engine's expectations")

		mtbf     = flag.Float64("mtbf", 0, "inject super-peer failures with this mean time between failures (s); 0 = off")
		recovery = flag.Float64("recovery", 120, "failure injection: replacement delay (s)")

		malicious = flag.Float64("malicious", 0, "fraction of super-peer partners that misbehave, in [0,1]; 0 = off")
		malDrop   = flag.Float64("mal-drop", 1, "adversary: probability a malicious partner silently drops a query")
		malForge  = flag.Float64("mal-forge", 0, "adversary: probability a malicious relay forges a QueryHit")
		malBusy   = flag.Float64("mal-busylie", 0, "adversary: probability a malicious partner Busy-refuses its own client")
		trustOn   = flag.Bool("trust", false, "adversary: reputation-weighted partner selection and forged-hit auditing")

		adaptive  = flag.Bool("adaptive", false, "run the Section 5.3 local decision rules")
		limitBps  = flag.Float64("limit-bps", 50_000, "adaptive: per-super-peer bandwidth limit each way (bps)")
		limitProc = flag.Float64("limit-proc", 1e6, "adaptive: per-super-peer processing limit (Hz)")
		interval  = flag.Float64("interval", 60, "adaptive: local evaluation period (s)")
		arrivals  = flag.Float64("arrivals", 0, "adaptive: new-client arrival rate (clients/s)")
	)
	flag.Parse()

	cfg := spnet.Config{
		GraphSize:    *size,
		ClusterSize:  *cluster,
		AvgOutdegree: *outdeg,
		TTL:          *ttl,
	}
	if *redundancy {
		cfg.KRedundancy = 2
	}
	switch *graphType {
	case "power":
		cfg.GraphType = spnet.PowerLaw
	case "strong":
		cfg.GraphType = spnet.Strong
	default:
		fmt.Fprintf(os.Stderr, "unknown -graph %q\n", *graphType)
		os.Exit(2)
	}

	inst, err := spnet.Generate(cfg, nil, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	opts := spnet.SimOptions{
		Duration: *duration,
		Seed:     *seed + 1,
		Churn:    !*noChurn,
	}
	if *routing != "flood" {
		strat, err := spnet.ParseRouting(*routing)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		opts.Routing = strat
	}
	if *mtbf > 0 {
		opts.Failures = &spnet.FailureOptions{
			RecoveryDelay: *recovery,
			Schedule:      spnet.ExponentialFailureSchedule(*seed+2, len(inst.Clusters), cfg.Partners(), *mtbf, *duration),
		}
	}
	if *contentOn {
		opts.Content = &spnet.ContentOptions{}
	}
	if *malicious > 0 || *trustOn {
		opts.Adversary = &spnet.AdversaryOptions{
			Fraction: *malicious,
			Drop:     *malDrop,
			Forge:    *malForge,
			BusyLie:  *malBusy,
			Trust:    *trustOn,
		}
	}
	if *adaptive {
		opts.Adaptive = &spnet.AdaptiveOptions{
			Limit:       spnet.Load{InBps: *limitBps, OutBps: *limitBps, ProcHz: *limitProc},
			Interval:    *interval,
			ArrivalRate: *arrivals,
		}
	}

	m, err := spnet.Simulate(inst, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	fmt.Printf("configuration: %v\n", cfg)
	fmt.Printf("simulated %.0f s of virtual time: %d queries, %d events\n\n",
		m.Duration, m.QueriesIssued, m.EventsExecuted)
	fmt.Printf("measured loads:\n")
	fmt.Printf("  aggregate:       %v\n", m.Aggregate)
	fmt.Printf("  mean super-peer: %v\n", m.MeanSuperPeer)
	fmt.Printf("  mean client:     %v\n", m.MeanClient)
	fmt.Printf("  results/query:   %.1f\n", m.ResultsPerQuery)
	fmt.Printf("  EPL:             %.2f\n", m.EPL)
	if m.QueriesIssued > 0 {
		fmt.Printf("  routing:         %s, %.2f forwards/query\n",
			m.Strategy, float64(m.QueriesForwarded)/float64(m.QueriesIssued))
	}
	fmt.Printf("topology at end of run: %d clusters, %d peers, mean outdegree %.1f, mean TTL %.1f\n",
		m.FinalClusters, m.FinalPeers, m.FinalMeanOutdegree, m.FinalMeanTTL)
	if m.FailuresInjected > 0 {
		fmt.Printf("failures: %d injected, %d client queries lost (%.2f%%)\n",
			m.FailuresInjected, m.ClientQueriesLost,
			100*float64(m.ClientQueriesLost)/float64(m.QueriesIssued+m.ClientQueriesLost))
	}
	if *malicious > 0 || *trustOn {
		fmt.Printf("adversary (%.0f%% malicious, trust %v):\n", 100**malicious, *trustOn)
		fmt.Printf("  refused %d, dropped %d at access, %d at relays; forged %d (%d accepted, %d detected)\n",
			m.QueriesRefused, m.QueriesDroppedMalicious, m.RelayDropsMalicious,
			m.ForgedResponses, m.ForgedAccepted, m.ForgedDetected)
		if m.ClientQueriesTracked > 0 {
			fmt.Printf("  client queries: %d tracked, %d lost (%.2f%%); genuine results/query %.2f, spread p50/p90/p99 %.1f/%.1f/%.1f\n",
				m.ClientQueriesTracked, m.ClientQueriesUnanswered,
				100*float64(m.ClientQueriesUnanswered)/float64(m.ClientQueriesTracked),
				m.GenuineResultsPerQuery, m.SpreadP50, m.SpreadP90, m.SpreadP99)
		}
	}

	if *compare && !*adaptive && !*contentOn {
		res := spnet.Evaluate(inst)
		fmt.Printf("\nanalysis expectations (same instance):\n")
		fmt.Printf("  aggregate:       %v\n", res.AggregateLoad())
		fmt.Printf("  mean super-peer: %v\n", res.MeanSuperPeerLoad())
		fmt.Printf("  mean client:     %v\n", res.MeanClientLoad())
		fmt.Printf("  results/query:   %.1f\n", res.ResultsPerQuery)
		fmt.Printf("  EPL:             %.2f\n", res.EPL)
	}
}
