package experiments

import (
	"fmt"
	"strings"
	"time"

	"spnet/internal/control"
	"spnet/internal/network"
	"spnet/internal/sim"
	"spnet/internal/topology"
)

// selfHealScenario is the self-healing drill: a live fleet loses a loaded
// partner mid-run, and the lost-query fraction with the fleet controller
// (internal/control) off and on quantifies what the Section 5.3 decision
// rules buy when they are pushed to real nodes instead of simulated.
//
// The failure is engineered to hurt: 2 clusters × 2 partners with 4 clients
// per cluster, every partner capped at its exact share of 2, so when sp-0-0
// dies a third of the way in its orphans find the survivor full (BUSY) and
// stay disconnected — until the controller detects the death and promotes
// the survivor to double capacity. The dead partner stays down for the rest
// of the window. The simulator plays the same kill on the same ring; it has
// no capacity to exhaust, so it shows what redundancy alone would save.
func selfHealScenario(seed uint64, duration float64) Scenario {
	return Scenario{
		Planted: network.Planted{
			Graph:     topology.Ring(2),
			Partners:  2,
			Clients:   4,
			Topics:    1,
			QueryRate: 0.03,
			QueryLen:  len(routingTopic(0)),
			TTL:       7,
		},
		Failures: &sim.FailureOptions{
			Schedule: sim.Schedule{{At: duration / 3, Cluster: 0, Partner: 0}},
			// Replaced only after the window closes.
			RecoveryDelay: duration,
		},
		ClientCapacity: 2,
		SimDuration:    duration,
		Live:           LiveLoad{Duration: duration, TimeScale: 120, Window: 150 * time.Millisecond},
		Seed:           seed,
	}
}

// selfHealInterval is the controller's tick in the drill's on arm, virtual
// seconds.
const selfHealInterval = 20

// healTimes reads the controller's log against the window's first kill:
// kill → sp-0-0 declared dead and kill → a promotion acked by a survivor, in
// virtual seconds (-1 when never), and how many directives were acked.
func healTimes(m LiveMeasured, timeScale float64) (detect, reconfig float64, acked int) {
	detect, reconfig = -1, -1
	for _, e := range m.Events {
		if e.Type == control.EvAcked {
			acked++
		}
		if len(m.Kills) == 0 || e.Time.Before(m.Kills[0]) {
			continue
		}
		since := bridge(timeScale).virtual(e.Time.Sub(m.Kills[0]))
		if e.Type == control.EvDead && e.Node == "sp-0-0" && detect < 0 {
			detect = since
		}
		if e.Type == control.EvAcked && e.Node != "sp-0-0" && reconfig < 0 &&
			strings.Contains(e.Detail, "promote-partner") {
			reconfig = since
		}
	}
	return detect, reconfig, acked
}

// runSelfHealDefault runs the drill with the controller off, then on.
// Small scales shorten the window and raise the query rate so each arm is
// about 2 wall seconds.
func runSelfHealDefault(p Params) (*Report, error) {
	base := selfHealScenario(p.Seed, 600)
	if p.scale() < 0.2 {
		base = selfHealScenario(p.Seed, 240)
		base.Planted.QueryRate = 0.06
	}
	arms := []struct {
		label    string
		interval float64
	}{{"controller off", 0}, {"controller on", selfHealInterval}}
	columns := []string{
		"Arm", "Queries (live)", "Lost queries (live)", "Lost (sim)", "Lost (live)",
		"Detect (virtual s)", "Reconfig (virtual s)", "Directives acked",
	}
	virtual := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", v)
	}
	serial := p
	serial.Workers = 1
	rows, err := pmapRows(serial, "self-healing", columns, len(arms), func(i int) ([]string, error) {
		s := base
		s.ControlInterval = arms[i].interval
		tw, err := runThreeWay(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arms[i].label, err)
		}
		detect, reconfig, acked := healTimes(tw.Live, s.Live.TimeScale)
		return []string{
			arms[i].label,
			fmt.Sprint(tw.Live.Queries),
			fmt.Sprint(tw.Live.ClientLost),
			fmt.Sprintf("%.2f%%", 100*simLost(tw.Sim)),
			fmt.Sprintf("%.2f%%", 100*liveLost(tw.Live)),
			virtual(detect), virtual(reconfig), fmt.Sprint(acked),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	kill := base.Failures.Schedule[0].At
	return &Report{
		Notes: []string{
			fmt.Sprintf("time-scale bridge: %g virtual s per wall s; %g virtual s per arm", base.Live.TimeScale, base.Live.Duration),
			fmt.Sprintf("%d clusters × %d partners, %d clients/cluster, per-partner capacity %d (exact share); every user queries at %g/virtual s",
				base.Planted.Graph.N(), base.Planted.Partners, base.Planted.Clients, base.ClientCapacity, base.Planted.QueryRate),
			fmt.Sprintf("sp-0-0 killed at %g virtual s; orphans are refused (BUSY) until the controller promotes the survivor", kill),
			"lost = client queries lost over every user's queries; the simulator plays the same kill without a capacity limit",
			"detect = kill → dead declared; reconfig = kill → promotion acked by the survivor",
		},
		Tables: []Table{{
			Title:   "self-healing",
			Columns: columns,
			Rows:    rows,
		}},
	}, nil
}
