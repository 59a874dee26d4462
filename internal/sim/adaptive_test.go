package sim

import (
	"slices"
	"testing"

	"spnet/internal/analysis"
	"spnet/internal/network"
)

// adaptiveBase is a small network with plenty of headroom.
func adaptiveBase(t *testing.T, seed uint64) *network.Instance {
	t.Helper()
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 300,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 7}
	return generate(t, cfg, lowVarProfile(), seed)
}

func TestAdaptiveRuleIIGrowsOutdegree(t *testing.T) {
	inst := adaptiveBase(t, 1)
	// Limits chosen so typical utilization sits between the coalesce and
	// spare thresholds: clusters neither merge nor shed, they add neighbors.
	m, err := Run(inst, Options{
		Duration: 1200, Seed: 2, Churn: true,
		Adaptive: &AdaptiveOptions{
			Limit:    analysis.Load{InBps: 4e4, OutBps: 4e4, ProcHz: 5e5},
			Interval: 60,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With spare resources everywhere, rule II should raise the mean
	// outdegree well above the initial 3.1.
	if m.FinalMeanOutdegree < 5 {
		t.Errorf("mean outdegree = %v, want growth beyond 3.1", m.FinalMeanOutdegree)
	}
}

func TestAdaptiveRuleIIIDecaysTTL(t *testing.T) {
	// A dense overlay with TTL 7: responses never come from 7 hops away, so
	// rule III should cut the TTL down toward the observed horizon.
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 300,
		ClusterSize: 10, AvgOutdegree: 10, TTL: 7}
	inst := generate(t, cfg, lowVarProfile(), 3)
	m, err := Run(inst, Options{
		Duration: 900, Seed: 4, Churn: false,
		Adaptive: &AdaptiveOptions{
			Limit:        analysis.Load{InBps: 4e4, OutBps: 4e4, ProcHz: 5e5},
			Interval:     60,
			MaxOutdegree: 10, // freeze outdegree growth; isolate rule III
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.FinalMeanTTL >= 6.5 {
		t.Errorf("mean TTL = %v, want decay below the initial 7", m.FinalMeanTTL)
	}
	if m.FinalMeanTTL < 2 {
		t.Errorf("mean TTL = %v, decayed too far to keep reach", m.FinalMeanTTL)
	}
}

func TestAdaptiveOverloadSplitsOrPromotes(t *testing.T) {
	// Very tight limits: every super-peer is overloaded from the start, so
	// clusters must shed load by promoting partners and splitting,
	// increasing the number of super-peer partners in the system.
	inst := adaptiveBase(t, 5)
	initialClusters := len(inst.Clusters)
	m, err := Run(inst, Options{
		Duration: 900, Seed: 6, Churn: true,
		Adaptive: &AdaptiveOptions{
			Limit:    analysis.Load{InBps: 2000, OutBps: 2000, ProcHz: 50_000},
			Interval: 60,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.FinalClusters <= initialClusters {
		t.Errorf("clusters %d -> %d: expected splits under overload",
			initialClusters, m.FinalClusters)
	}
}

func TestAdaptiveUnderloadCoalesces(t *testing.T) {
	// Tiny clusters with huge limits: rule I's underload response should
	// merge clusters, shrinking the super-peer population.
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 200,
		ClusterSize: 2, AvgOutdegree: 3.1, TTL: 7}
	inst := generate(t, cfg, lowVarProfile(), 7)
	initialClusters := len(inst.Clusters)
	m, err := Run(inst, Options{
		Duration: 900, Seed: 8, Churn: false,
		Adaptive: &AdaptiveOptions{
			Limit:    analysis.Load{InBps: 1e9, OutBps: 1e9, ProcHz: 1e12},
			Interval: 60,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.FinalClusters >= initialClusters {
		t.Errorf("clusters %d -> %d: expected coalescing under underload",
			initialClusters, m.FinalClusters)
	}
	// The population is conserved: every resigned super-peer and moved
	// client lives on somewhere.
	if m.FinalPeers != inst.NumPeers {
		t.Errorf("peers %d -> %d: coalescing must conserve the population",
			inst.NumPeers, m.FinalPeers)
	}
}

func TestAdaptiveArrivalsGrowPopulation(t *testing.T) {
	inst := adaptiveBase(t, 9)
	m, err := Run(inst, Options{
		Duration: 600, Seed: 10, Churn: false,
		Adaptive: &AdaptiveOptions{
			Limit:       analysis.Load{InBps: 1e7, OutBps: 1e7, ProcHz: 1e9},
			Interval:    60,
			ArrivalRate: 0.5, // ~300 new clients over the run
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.FinalPeers <= inst.NumPeers+100 {
		t.Errorf("peers %d -> %d: arrivals should grow the population",
			inst.NumPeers, m.FinalPeers)
	}
}

func TestAdaptiveStaysDeterministic(t *testing.T) {
	opts := Options{
		Duration: 400, Seed: 11, Churn: true,
		Adaptive: &AdaptiveOptions{
			Limit:    analysis.Load{InBps: 1e5, OutBps: 1e5, ProcHz: 1e8},
			Interval: 60,
		},
	}
	a, err := Run(adaptiveBase(t, 12), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(adaptiveBase(t, 12), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Aggregate != b.Aggregate || a.FinalClusters != b.FinalClusters ||
		a.FinalMeanOutdegree != b.FinalMeanOutdegree {
		t.Error("adaptive run is not deterministic")
	}
}

// TestDarkClusterMakesNoDecision: a cluster whose every partner is down
// measures only the outage, so its evaluation must leave it as it was
// rather than read the silence as underload and absorb a neighbor's clients,
// and its first load window after recovery starts at the recovery.
func TestDarkClusterMakesNoDecision(t *testing.T) {
	inst := adaptiveBase(t, 1)
	s, err := New(inst, Options{
		Duration: 1800, Seed: 2, Churn: true,
		Adaptive: &AdaptiveOptions{
			Limit:    analysis.Load{InBps: 5e4, OutBps: 5e4, ProcHz: 1e6},
			Interval: 60,
		},
		Failures: &FailureOptions{
			RecoveryDelay: 300,
			Schedule:      ExponentialSchedule(3, len(inst.Clusters), 1, 600, 1800),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	evaluated, dark := 0, map[*clusterNode]bool{}
	for at := 60.0; at <= 1800; at += 60 {
		s.runUntil(at)
		for _, c := range s.clusters {
			if dark[c] && !c.down && c.adaptive.lastEvalAt <= at-60 {
				t.Fatalf("t=%v: cluster %d recovered, but its load window starts at %v, in the outage", at, c.id, c.adaptive.lastEvalAt)
			}
			if dark[c] = c.down && !c.dissolved(); !dark[c] {
				continue
			}
			clients, neighbors, ttl, accepting := len(c.clients), slices.Clone(c.neighbors), c.ttl, c.acceptingClients
			s.adaptiveEvaluate(c)
			evaluated++
			if len(c.clients) != clients || !slices.Equal(c.neighbors, neighbors) || c.ttl != ttl || c.acceptingClients != accepting {
				t.Fatalf("t=%v: dark cluster %d acted: clients %d -> %d, outdegree %d -> %d, ttl %d -> %d",
					at, c.id, clients, len(c.clients), len(neighbors), len(c.neighbors), ttl, c.ttl)
			}
		}
	}
	if evaluated == 0 {
		t.Fatal("no cluster was dark at any check; the schedule exercised nothing")
	}
}

// TestPartnerChangeRestartsLoadWindow: when a multi-partner cluster loses a
// partner or seats a replacement, its load window starts afresh. Otherwise
// the window's counter sum drops by the failed partner's counts, or averages
// in a partner that was not there, and the next evaluation can read a
// negative load as underload and coalesce.
func TestPartnerChangeRestartsLoadWindow(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 300,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 7, KRedundancy: 3}
	inst := generate(t, cfg, lowVarProfile(), 1)
	s, err := New(inst, Options{
		Duration: 1800, Seed: 2, Churn: true,
		Adaptive: &AdaptiveOptions{
			Limit:    analysis.Load{InBps: 5e4, OutBps: 5e4, ProcHz: 1e6},
			Interval: 60,
		},
		Failures: &FailureOptions{
			RecoveryDelay: 300,
			Schedule:      ExponentialSchedule(3, len(inst.Clusters), 3, 600, 1800),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	const step = 5.0
	partners, changes := map[*clusterNode]int{}, 0
	for at := step; at <= 1800; at += step {
		s.runUntil(at)
		for _, c := range s.clusters {
			if c.dissolved() || c.down {
				continue
			}
			st := c.adaptive
			var in, out, proc float64
			for _, p := range c.partners {
				in += p.counters.bytesIn
				out += p.counters.bytesOut
				proc += p.counters.procU
			}
			if in < st.lastIn || out < st.lastOut || proc < st.lastProc {
				t.Fatalf("t=%v: cluster %d's window reads negative load: in %v < %v, out %v < %v, proc %v < %v",
					at, c.id, in, st.lastIn, out, st.lastOut, proc, st.lastProc)
			}
			if n, ok := partners[c]; ok && n != len(c.partners) {
				changes++
				if st.lastEvalAt <= at-step {
					t.Fatalf("t=%v: cluster %d went from %d to %d partners, but its load window starts at %v",
						at, c.id, n, len(c.partners), st.lastEvalAt)
				}
			}
			partners[c] = len(c.partners)
		}
	}
	if changes == 0 {
		t.Fatal("no partner set changed at any check; the schedule exercised nothing")
	}
}
