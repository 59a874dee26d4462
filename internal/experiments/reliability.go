package experiments

import (
	"fmt"

	"spnet/internal/network"
	"spnet/internal/sim"
	"spnet/internal/stats"
)

// runReliability is an extension beyond the paper's evaluation: Section 3.2
// argues qualitatively that a k-redundant super-peer has "much greater
// availability and reliability" because the probability that every partner
// fails before any is replaced is much lower than a single super-peer
// failing. This experiment injects super-peer failures into the
// message-level simulator and measures what the paper argues: the fraction
// of client queries lost while a cluster has no live partner, for k = 1, 2
// and 3, across two failure regimes.
func runReliability(p Params) (*Report, error) {
	cfg := network.Config{
		GraphType:    network.PowerLaw,
		GraphSize:    p.scaled(2000, 300),
		ClusterSize:  10,
		AvgOutdegree: 3.1,
		TTL:          5,
	}
	duration := 3000.0
	if p.scale() < 0.2 {
		duration = 1200 // keep tiny-scale (benchmark) runs fast
	}

	// The regime × k grid: every cell generates and simulates independently
	// (seeds depend only on k), so all six run concurrently.
	type cell struct {
		regime int
		k      int
	}
	var cells []cell
	for ri := range failureRegimes {
		for k := 1; k <= 3; k++ {
			cells = append(cells, cell{ri, k})
		}
	}
	columns := []string{"Failure regime", "k", "Failures", "Client queries lost", "Lost fraction", "Results/query"}
	rows, err := pmapRows(p, "failure regimes", columns, len(cells), func(i int) ([]string, error) {
		reg := failureRegimes[cells[i].regime]
		k := cells[i].k
		c := cfg
		c.KRedundancy = k
		inst, err := network.Generate(c, nil, stats.NewRNG(p.Seed+uint64(k)))
		if err != nil {
			return nil, err
		}
		m, err := sim.Run(inst, sim.Options{
			Duration: duration,
			Seed:     p.Seed + 100 + uint64(k),
			Failures: &sim.FailureOptions{
				RecoveryDelay: reg.recovery,
				Schedule:      sim.ExponentialSchedule(p.Seed+200+uint64(k), len(inst.Clusters), k, reg.mtbf, duration),
			},
		})
		if err != nil {
			return nil, err
		}
		return []string{
			reg.label,
			fmt.Sprint(k),
			fmt.Sprint(m.FailuresInjected),
			fmt.Sprint(m.ClientQueriesLost),
			fmt.Sprintf("%.2f%%", 100*simLost(m)),
			fmt.Sprintf("%.1f", m.ResultsPerQuery),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Notes: []string{
			"extension beyond the paper: the Section 3.2 reliability argument, measured by failure injection",
			"expected shape: lost-query fraction drops by an order of magnitude per added partner when recovery << MTBF",
			fmt.Sprintf("%d peers, cluster 10, %v s of virtual time per cell", cfg.GraphSize, duration),
		},
		Tables: []Table{{
			Columns: columns,
			Rows:    rows,
		}},
	}, nil
}

// simLost is the simulator's reliability measure: client queries lost to a
// dark cluster over every query users tried to submit.
func simLost(m *sim.Measured) float64 {
	return ratio(m.ClientQueriesLost, m.QueriesIssued+m.ClientQueriesLost)
}
