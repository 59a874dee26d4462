package experiments

import (
	"fmt"
	"math"
	"time"

	"spnet/internal/network"
	"spnet/internal/sim"
	"spnet/internal/topology"
)

// trustScenario is the adversarial sweep's star: 5 clusters of 2 partner
// slots and 3 one-file clients each, topic-partitioned content, TTL 2
// (enough for leaf→hub→leaf). trustCell plants one (fraction, trust) cell's
// attack on it, and all three layers run that one graph: the model walks
// its access and relay legs in closed form, the simulator adds reputation
// learning, Busy accounting and the forged-hit audit, and the live fleet
// adds what only a working system has — client re-homing over real
// sockets, trust-aware admission, and hit validation against outstanding
// query routes. The simulator has always run at seed+17.
//
// Live k = 2 is not the model's k = 2. A live client joins one partner, so
// its files are indexed there only, while the live flood reaches every
// partner of a neighbor (and the co-partner). A freeloading access partner
// therefore starves its clients' searches and hides their files from
// everyone else's, and the trust-oblivious live column loses more than the
// model's uniform partner choice predicts.
func trustScenario(seed uint64) Scenario {
	return Scenario{
		Planted: network.Planted{
			Graph:     topology.Star(4),
			Partners:  2,
			Clients:   3,
			Topics:    5,
			QueryRate: 0.05,
			QueryLen:  len(routingTopic(0)),
			TTL:       2,
		},
		SimDuration: 1500,
		// 100 ms windows are also the cadence of a trusting client's
		// reputation observations.
		Live: LiveLoad{Duration: 120, TimeScale: 80, Window: 100 * time.Millisecond},
		Seed: seed + 17,
	}
}

// trustFractions is the sweep's malicious-partner axis, 0–50%.
var trustFractions = []float64{0, 0.1, 0.3, 0.5}

// trustCell plants round(fraction × partner slots) malicious partners on
// base at full strength — every query dropped, every relayed query answered
// with a forged hit — with reputation-weighted selection off or on.
func trustCell(base Scenario, fraction float64, trust bool) Scenario {
	clusters := base.Planted.Graph.N()
	nMal := int(math.Round(fraction * float64(base.Planted.Partners) * float64(clusters)))
	base.Adversary = &sim.AdversaryOptions{
		Malicious: trustMaliciousSlots(nMal, clusters),
		Drop:      1,
		Forge:     1,
		Trust:     trust,
	}
	return base
}

// trustMaliciousSlots spreads nMal malicious assignments over the star's
// clusters, slot 0 first across all clusters — so no 2-slot cluster loses
// both partners until more than half of all slots are malicious, matching
// the model's trust-on assumption that an honest alternative exists.
func trustMaliciousSlots(nMal, clusters int) func(cluster, slot int) bool {
	return func(cluster, slot int) bool {
		return slot*clusters+cluster < nMal
	}
}

// TrustSweepRow is one (fraction, trust) cell's three-way measurement.
type TrustSweepRow struct {
	Fraction float64
	Trust    bool

	// Lost-query fractions per layer: client searches with zero genuine
	// results.
	ModelLost, SimLost, LiveLost float64
	// Recall per layer: the model's expected results per query, and the
	// measured genuine results per client search.
	ModelResults, SimGenuine, LiveGenuine float64

	// Sim and Live carry each layer's defense accounting.
	Sim  *sim.Measured
	Live LiveMeasured
}

// TrustSweepResult carries the sweep rows alongside the printable report,
// for tests to assert the gap-recovery acceptance criterion on.
type TrustSweepResult struct {
	Rows   []TrustSweepRow
	Report *Report
}

// Row returns the cell at the given fraction and trust setting.
func (r *TrustSweepResult) Row(frac float64, trust bool) *TrustSweepRow {
	for i := range r.Rows {
		if r.Rows[i].Fraction == frac && r.Rows[i].Trust == trust {
			return &r.Rows[i]
		}
	}
	return nil
}

// runTrustSweep runs base at every fraction with trust off and on and
// returns rows and report.
func runTrustSweep(base Scenario, fractions []float64, progress func(done, total int)) (*TrustSweepResult, error) {
	var rows []TrustSweepRow
	for _, frac := range fractions {
		for _, trust := range []bool{false, true} {
			tw, err := runThreeWay(trustCell(base, frac, trust))
			if err != nil {
				return nil, fmt.Errorf("trustsweep: %w", err)
			}
			m, live := tw.Sim, tw.Live
			rows = append(rows, TrustSweepRow{
				Fraction:     frac,
				Trust:        trust,
				ModelLost:    tw.ModelLost,
				SimLost:      ratio(m.ClientQueriesUnanswered, m.ClientQueriesTracked),
				LiveLost:     ratio(live.ClientLost, live.ClientQueries),
				ModelResults: tw.Model.ResultsPerQuery,
				SimGenuine:   m.GenuineResultsPerQuery,
				LiveGenuine:  ratio(live.ClientGenuine, live.ClientQueries),
				Sim:          m,
				Live:         live,
			})
			if progress != nil {
				progress(len(rows), 2*len(fractions))
			}
		}
	}

	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	recall := Table{
		Title: "lost-query fraction and recall, model vs simulator vs live",
		Columns: []string{"Malicious", "Trust", "Lost (model)", "Lost (sim)", "Lost (live)",
			"Results/q (model)", "Genuine/q (sim)", "Genuine/q (live)", "Spread p50/p90 (sim)"},
	}
	defense := Table{
		Title: "defense accounting",
		Columns: []string{"Malicious", "Trust", "Refused (sim)", "Dropped (sim)", "Relay drops (sim)",
			"Forged acc/det (sim)", "Forged det (live)", "Re-homes (live)", "Admission shed (live)"},
	}
	for _, r := range rows {
		mal := fmt.Sprintf("%.0f%%", 100*r.Fraction)
		recall.Rows = append(recall.Rows, []string{
			mal, onOff(r.Trust),
			fmt.Sprintf("%.3f", r.ModelLost),
			fmt.Sprintf("%.3f", r.SimLost),
			fmt.Sprintf("%.3f", r.LiveLost),
			fmt.Sprintf("%.2f", r.ModelResults),
			fmt.Sprintf("%.2f", r.SimGenuine),
			fmt.Sprintf("%.2f", r.LiveGenuine),
			fmt.Sprintf("%.1f/%.1f", r.Sim.SpreadP50, r.Sim.SpreadP90),
		})
		defense.Rows = append(defense.Rows, []string{
			mal, onOff(r.Trust),
			fmt.Sprint(r.Sim.QueriesRefused),
			fmt.Sprint(r.Sim.QueriesDroppedMalicious),
			fmt.Sprint(r.Sim.RelayDropsMalicious),
			fmt.Sprintf("%d/%d", r.Sim.ForgedAccepted, r.Sim.ForgedDetected),
			fmt.Sprint(r.Live.ForgedDetected),
			fmt.Sprint(r.Live.Reconnects),
			fmt.Sprint(r.Live.AdmissionShed),
		})
	}

	p := base.Planted
	report := &Report{
		Notes: []string{
			"extension beyond the paper: freeloading + forgery attack at 0–50% malicious partners, trust-oblivious vs reputation-weighted",
			fmt.Sprintf("one star in every layer: %d clusters × %d partner slots, malicious slots spread one per cluster first", p.Graph.N(), p.Partners),
			fmt.Sprintf("live: every client and partner replays %g virtual s of Poisson queries, %v result windows; a client's ranked partners are its own cluster's",
				base.Live.Duration, base.Live.Window),
			"live k = 2 is not the model's: a client joins one partner (its files are indexed there only) and the flood reaches every partner of a neighbor, so trust-off live losses exceed the model's",
			"acceptance shape: at >=30% malicious, trust-on recovers at least half of the lost-query gap in every layer",
			"live cells measure a real TCP overlay; their counts carry scheduling noise the model and simulator do not",
		},
		Tables: []Table{recall, defense},
	}
	return &TrustSweepResult{Rows: rows, Report: report}, nil
}

// runTrustSweepDefault adapts the generic experiment Params: small scales
// shrink the sweep to its endpoints and shorten every window so the smoke
// run stays fast; full scale is the validated configuration.
func runTrustSweepDefault(p Params) (*Report, error) {
	base, fractions := trustScenario(p.Seed), trustFractions
	if p.Scale > 0 && p.Scale < 1 {
		fractions = []float64{0, 0.5}
		base.SimDuration = math.Max(400, 1500*p.Scale)
		base.Live.Duration = 60
	}
	var progress func(done, total int)
	if p.Progress != nil {
		progress = func(done, total int) { p.Progress("cells", done, total) }
	}
	res, err := runTrustSweep(base, fractions, progress)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}
