package experiments

import (
	"fmt"
	"time"

	"spnet/internal/network"
	"spnet/internal/sim"
	"spnet/internal/topology"
	"spnet/internal/workload"
)

// failureRegime is one failure process of the reliability tables, in virtual
// seconds: each partner fails after exponential gaps of mean mtbf and is
// replaced recovery later.
type failureRegime struct {
	label          string
	mtbf, recovery float64
}

// failureRegimes are the regimes both reliability tables run.
var failureRegimes = []failureRegime{
	{"harsh (MTBF 1000 s, recovery 300 s)", 1000, 300},
	{"benign (MTBF 2000 s, recovery 60 s)", 2000, 60},
}

// reliabilityScenario is one cell of the live reliability table: the regime's
// failure process at k partners per cluster on a 3-ring, drawn once from
// seed+500 over the window the simulator and the live fleet share. Every
// user queries at the Table 1 rate, and each of the 3 clients per cluster
// shares one file every query matches, so a healthy search finds all 9.
func reliabilityScenario(seed uint64, reg failureRegime, k int, duration float64) Scenario {
	const clusters = 3
	return Scenario{
		Planted: network.Planted{
			Graph:     topology.Ring(clusters),
			Partners:  k,
			Clients:   3,
			Topics:    1,
			QueryRate: workload.DefaultRates().QueryRate,
			QueryLen:  len(routingTopic(0)),
			TTL:       7,
		},
		Failures: &sim.FailureOptions{
			Schedule:      sim.ExponentialSchedule(seed+500, clusters, k, reg.mtbf, duration),
			RecoveryDelay: reg.recovery,
		},
		SimDuration: duration,
		Live:        LiveLoad{Duration: duration, TimeScale: 120, Window: 200 * time.Millisecond},
		Seed:        seed,
	}
}

// liveLost is the live counterpart of simLost: client searches lost — failed,
// or back without one genuine result — over every user's searches.
func liveLost(m LiveMeasured) float64 { return ratio(m.ClientLost, m.Queries) }

// runLiveReliability plays every regime at every redundancy level in the
// simulator and on a live fleet and lays the two lost fractions side by side
// with what only the live fleet shows: degraded searches, client recovery
// time and Busy replies. Params.Scale shortens the 600-virtual-second window.
// Cells run one at a time: each is a real network saturating real sockets,
// and overlapping them would perturb the measurements.
func runLiveReliability(p Params, regimes []failureRegime, ks []int) (*Report, error) {
	duration := max(60, 600*p.scale())
	columns := []string{
		"Failure regime", "k", "Failures (sim)", "Failures (live)", "Queries (live)",
		"Lost (sim)", "Lost (live)", "Degraded (live)", "Mean recovery (live, s)", "Busy (live)",
	}
	serial := p
	serial.Workers = 1
	rows, err := pmapRows(serial, "live failure regimes", columns, len(regimes)*len(ks), func(i int) ([]string, error) {
		ri, k := i/len(ks), ks[i%len(ks)]
		reg := regimes[ri]
		tw, err := runThreeWay(reliabilityScenario(p.Seed+uint64(ri*1000+k), reg, k, duration))
		if err != nil {
			return nil, fmt.Errorf("%s k=%d: %w", reg.label, k, err)
		}
		live := tw.Live
		recovery := "-"
		if n := len(live.Recovery); n > 0 {
			sum := 0.0
			for _, r := range live.Recovery {
				sum += r
			}
			recovery = fmt.Sprintf("%.0f", sum/float64(n))
		}
		return []string{
			reg.label,
			fmt.Sprint(k),
			fmt.Sprint(tw.Sim.FailuresInjected),
			fmt.Sprint(len(live.Kills)),
			fmt.Sprint(live.Queries),
			fmt.Sprintf("%.2f%%", 100*simLost(tw.Sim)),
			fmt.Sprintf("%.2f%%", 100*liveLost(live)),
			fmt.Sprintf("%.2f%%", 100*ratio(live.ClientDegraded, live.ClientQueries-live.ClientLost)),
			recovery,
			fmt.Sprint(live.ClientBusy),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Notes: []string{
			fmt.Sprintf("3-ring × k partners, 3 clients per cluster, every user querying at %.3g/virtual s; %g virtual s per cell, live at 120 virtual s per wall s",
				workload.DefaultRates().QueryRate, duration),
			"one kill schedule per cell, drawn from the regime and played by both arms; the live arm restarts a slot when its recovery falls inside the window",
			"lost = client queries lost (dark cluster; live also: failed or no genuine result) over every user's queries",
			"degraded = live client searches not lost but short of the 9 planted matches; recovery = client conn-lost → rejoined",
		},
		Tables: []Table{{
			Title:   "live failure regimes",
			Columns: columns,
			Rows:    rows,
		}},
	}, nil
}

// runLiveReliabilityDefault runs the simulated table's grid. Small scales
// (smoke and benchmark runs) keep its corners with the most contrast: the
// harsh regime at k = 1 and 3.
func runLiveReliabilityDefault(p Params) (*Report, error) {
	if p.scale() < 0.2 {
		return runLiveReliability(p, failureRegimes[:1], []int{1, 3})
	}
	return runLiveReliability(p, failureRegimes, []int{1, 2, 3})
}
