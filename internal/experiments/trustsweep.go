package experiments

import (
	"fmt"
	"math"
	"sync"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/sim"
	"spnet/internal/topology"
)

// trustProbeTerm is the live sweep's common query term; the hub's provider
// clients share files matching it, so any query that survives the access and
// relay legs returns genuine results.
const trustProbeTerm = "trust probe needle"

// TrustSweepParams shape the adversarial three-way sweep: the same star
// overlay is walked in closed form, simulated at the message level, and run
// as real TCP nodes, at malicious fractions 0–50% with reputation-weighted
// selection off and on.
//
// The three layers share the attack (freeloading drops plus forged hits) but
// each measures its own defense surface. The model predicts recall from
// per-leg drop probabilities — trust-off legs lose a query with probability
// (malicious slots/2)·Drop, trust-on legs only when every slot of a cluster
// is malicious. The simulator adds reputation learning, Busy accounting and
// the forged-hit audit. The live layer adds what only a working system has:
// client re-homing over real sockets, trust-aware admission, and hit
// validation against outstanding query routes.
type TrustSweepParams struct {
	// Fractions are the malicious-partner fractions swept (default
	// 0, 0.1, 0.3, 0.5 — the ISSUE's 0–50% range).
	Fractions []float64
	// Drop and Forge are the per-opportunity misbehavior probabilities of a
	// malicious partner (default 1: always drop, always forge — the
	// starkest version of the attack).
	Drop, Forge float64
	// SimClusters is the simulated star's cluster count including the hub;
	// each cluster has 2 partner slots and 3 clients (default 5).
	SimClusters int
	// SimDuration is the simulated virtual time per cell (default 1500 s).
	SimDuration float64
	// LiveLeaves is the live star's leaf-node count; malicious nodes are
	// round(fraction·LiveLeaves) of them (default 10).
	LiveLeaves int
	// Searches is how many queries each live client issues (default 6).
	Searches int
	// Window is each live search's result-collection window (default
	// 250 ms) — also the cadence of the client's reputation observations.
	Window time.Duration
	// Seed drives the simulator and the live misbehavior streams.
	Seed uint64
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

func (p *TrustSweepParams) setDefaults() {
	if p.Fractions == nil {
		p.Fractions = []float64{0, 0.1, 0.3, 0.5}
	}
	if p.Drop <= 0 {
		p.Drop = 1
	}
	if p.Forge <= 0 {
		p.Forge = 1
	}
	if p.SimClusters <= 0 {
		p.SimClusters = 5
	}
	if p.SimDuration <= 0 {
		p.SimDuration = 1500
	}
	if p.LiveLeaves <= 0 {
		p.LiveLeaves = 10
	}
	if p.Searches <= 0 {
		p.Searches = 6
	}
	if p.Window <= 0 {
		p.Window = 250 * time.Millisecond
	}
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
}

// trustMaliciousSlots spreads nMal malicious assignments over the star's
// 2-slot clusters, slot 0 first across all clusters — so no cluster loses
// both partners until more than half of all slots are malicious, matching
// the model's trust-on assumption that an honest alternative exists.
func trustMaliciousSlots(nMal, clusters int) func(cluster, slot int) bool {
	return func(cluster, slot int) bool {
		return slot*clusters+cluster < nMal
	}
}

// trustLegLoss returns each cluster's per-leg query-loss probability q(c):
// the chance that the partner chosen to receive a query (by a client at its
// own cluster, or by a forwarding neighbor) is malicious and drops it.
// Trust-oblivious choosers pick uniformly over the 2 slots; reputation-
// weighted choosers avoid a malicious slot whenever an honest one exists.
func trustLegLoss(nMal, clusters int, drop float64, trustOn bool) []float64 {
	malicious := trustMaliciousSlots(nMal, clusters)
	q := make([]float64, clusters)
	for c := range q {
		mal := 0
		for s := 0; s < 2; s++ {
			if malicious(c, s) {
				mal++
			}
		}
		if trustOn {
			if mal == 2 {
				q[c] = drop
			}
		} else {
			q[c] = drop * float64(mal) / 2
		}
	}
	return q
}

// trustModelLost is the closed-form lost-query fraction on the star: clients
// and query topics are uniform over clusters, and a query survives iff every
// leg's chosen partner relays it. Legs for a client at cluster x querying
// topic t: the access leg at x always; then x→hub, hub→t as the star path
// requires (cluster 0 is the hub).
func trustModelLost(q []float64) float64 {
	n := len(q)
	total := 0.0
	for x := 0; x < n; x++ {
		for t := 0; t < n; t++ {
			surv := 1 - q[x]
			if t != x {
				if x != 0 {
					surv *= 1 - q[0]
				}
				if t != 0 {
					surv *= 1 - q[t]
				}
			}
			total += 1 - surv
		}
	}
	return total / float64(n*n)
}

// instance builds the star the model and simulator share: SimClusters
// 2-redundant super-peer pairs, 3 one-file clients each, topic-partitioned
// content, TTL 2 (enough for leaf→hub→leaf).
func (p *TrustSweepParams) instance() (*network.Instance, error) {
	return network.NewPlanted(network.Planted{
		Graph:     topology.Star(p.SimClusters - 1),
		Partners:  2,
		Clients:   3,
		Topics:    p.SimClusters,
		QueryRate: 0.05,
		QueryLen:  len(routingTopic(0)),
		TTL:       2,
	})
}

// runTrustSimCell simulates one (fraction, trust) cell on the star with
// topic-partitioned content, so lost-fraction and spread measure real recall
// against exact ground truth.
func runTrustSimCell(p *TrustSweepParams, inst *network.Instance, frac float64, trustOn bool) (*sim.Measured, error) {
	nMal := int(math.Round(frac * 2 * float64(p.SimClusters)))
	return sim.Run(inst, sim.Options{
		Duration: p.SimDuration,
		Seed:     p.Seed + 17,
		Adversary: &sim.AdversaryOptions{
			Malicious: trustMaliciousSlots(nMal, p.SimClusters),
			Drop:      p.Drop,
			Forge:     p.Forge,
			Trust:     trustOn,
		},
		Content: topicContent(p.SimClusters),
	})
}

// runTrustLiveCell boots a flat star of real nodes — an honest hub indexing
// the provider's files, LiveLeaves access super-peers of which the first
// round(frac·LiveLeaves) misbehave — and homes one client on every leaf with
// the diametrically opposite leaf as its ranked alternative. Each client's
// searches must cross its access leaf to reach the hub's content, so a
// freeloading leaf starves exactly its own clients: the loss reputation-
// driven re-homing is able to win back. The cell's measurements land in the
// row's Live fields.
func runTrustLiveCell(p *TrustSweepParams, row *TrustSweepRow) error {
	trustOn := row.Trust
	leaves := p.LiveLeaves
	nMal := int(math.Round(row.Fraction * float64(leaves)))

	f, err := launchFleet(network.LiveConfig{
		Overlay:  topology.Star(leaves),
		Partners: 1,
		Seed:     p.Seed,
		Node:     p2p.Options{Trust: trustOn},
		Adjust: func(cluster, _ int, opts *p2p.Options) {
			if leaf := cluster - 1; leaf >= 0 && leaf < nMal {
				opts.Misbehave = &p2p.MisbehaveOptions{
					Drop:  p.Drop,
					Forge: p.Forge,
					Seed:  p.Seed + uint64(leaf),
				}
			}
		},
	}, 0, p.Logf)
	if err != nil {
		return fmt.Errorf("trustsweep: %w", err)
	}
	defer f.close()

	// One client per cluster: the hub's is the provider, each leaf's a
	// searcher sharing nothing.
	leafAddr := func(leaf int) string { return f.live.ClusterAddrs(1 + leaf%leaves)[0] }
	err = f.dial(1, func(c, _ int) (p2p.DialOptions, []p2p.SharedFile) {
		if c == 0 {
			return p2p.DialOptions{}, []p2p.SharedFile{
				{Index: 1, Title: trustProbeTerm + " first edition"},
				{Index: 2, Title: trustProbeTerm + " second edition"},
			}
		}
		leaf := c - 1
		return p2p.DialOptions{
			Addrs: []string{leafAddr(leaf), leafAddr(leaf + leaves/2)},
			Trust: trustOn,
			Seed:  p.Seed ^ uint64(leaf+1)<<8,
		}, nil
	})
	if err != nil {
		return fmt.Errorf("trustsweep: %w", err)
	}
	if err := f.settle(0); err != nil {
		return fmt.Errorf("trustsweep: %w", err)
	}

	var mu sync.Mutex
	searches, lost, genuine := 0, 0, 0
	var wg sync.WaitGroup
	for leaf := 0; leaf < leaves; leaf++ {
		wg.Add(1)
		go func(leaf int, cl *p2p.Client) {
			defer wg.Done()
			for s := 0; s < p.Searches; s++ {
				out, err := cl.SearchDetailed(trustProbeTerm, p.Window)
				mu.Lock()
				searches++
				if err != nil || out.Genuine == 0 {
					lost++
					if err != nil {
						p.Logf("trustsweep: live search leaf %d: %v", leaf, err)
					}
				} else {
					genuine += out.Genuine
				}
				mu.Unlock()
			}
		}(leaf, f.clients[1+leaf][0])
	}
	wg.Wait()

	row.LiveLost = float64(lost) / float64(searches)
	row.LiveGenuine = float64(genuine) / float64(searches)
	for c := 0; c <= leaves; c++ {
		st := f.live.Node(c, 0).Stats()
		row.LiveForgedDet += st.HitsForged
		row.LiveAdmissionShed += st.QueriesShedAdmission
		if c > 0 {
			row.LiveRehomes += int64(f.clients[c][0].Reconnects())
		}
	}
	return nil
}

// TrustSweepRow is one (fraction, trust) cell's three-way measurement.
type TrustSweepRow struct {
	Fraction float64
	Trust    bool

	// Lost-query fractions per layer: searches with zero genuine results.
	ModelLost, SimLost, LiveLost float64
	// Recall per layer: the model's expected results per query, and the
	// measured genuine results per client query.
	ModelResults, SimGenuine, LiveGenuine float64

	// Simulator defense accounting.
	SimSpreadP50, SimSpreadP90        float64
	SimForgedAccepted, SimForgedDet   int
	SimRefused, SimDropped, SimRelays int

	// Live defense accounting.
	LiveForgedDet, LiveRehomes, LiveAdmissionShed int64
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

// RunTrustSweepResult executes the full sweep and returns rows and report.
func RunTrustSweepResult(p TrustSweepParams, progress func(done, total int)) (*TrustSweepResult, error) {
	p.setDefaults()
	inst, err := p.instance()
	if err != nil {
		return nil, err
	}

	type cellKey struct {
		frac  float64
		trust bool
	}
	var cells []cellKey
	for _, f := range p.Fractions {
		for _, trust := range []bool{false, true} {
			cells = append(cells, cellKey{f, trust})
		}
	}

	rows := make([]TrustSweepRow, len(cells))
	for i, c := range cells {
		row := TrustSweepRow{Fraction: c.frac, Trust: c.trust}

		// Model column: closed-form star walk for the lost fraction, and the
		// mean-value engine with the mean per-leg honesty for recall.
		nMalSlots := int(math.Round(c.frac * 2 * float64(p.SimClusters)))
		q := trustLegLoss(nMalSlots, p.SimClusters, p.Drop, c.trust)
		row.ModelLost = trustModelLost(q)
		meanQ := 0.0
		for _, v := range q {
			meanQ += v
		}
		meanQ /= float64(len(q))
		row.ModelResults = analysis.EvaluateWith(inst, analysis.Options{RelayDrop: meanQ}).ResultsPerQuery

		m, err := runTrustSimCell(&p, inst, c.frac, c.trust)
		if err != nil {
			return nil, err
		}
		if m.ClientQueriesTracked > 0 {
			row.SimLost = float64(m.ClientQueriesUnanswered) / float64(m.ClientQueriesTracked)
		}
		row.SimGenuine = m.GenuineResultsPerQuery
		row.SimSpreadP50 = m.SpreadP50
		row.SimSpreadP90 = m.SpreadP90
		row.SimForgedAccepted = m.ForgedAccepted
		row.SimForgedDet = m.ForgedDetected
		row.SimRefused = m.QueriesRefused
		row.SimDropped = m.QueriesDroppedMalicious
		row.SimRelays = m.RelayDropsMalicious

		if err := runTrustLiveCell(&p, &row); err != nil {
			return nil, err
		}

		rows[i] = row
		if progress != nil {
			progress(i+1, len(cells))
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
			fmt.Sprintf("%.1f/%.1f", r.SimSpreadP50, r.SimSpreadP90),
		})
		defense.Rows = append(defense.Rows, []string{
			mal, onOff(r.Trust),
			fmt.Sprint(r.SimRefused),
			fmt.Sprint(r.SimDropped),
			fmt.Sprint(r.SimRelays),
			fmt.Sprintf("%d/%d", r.SimForgedAccepted, r.SimForgedDet),
			fmt.Sprint(r.LiveForgedDet),
			fmt.Sprint(r.LiveRehomes),
			fmt.Sprint(r.LiveAdmissionShed),
		})
	}

	report := &Report{
		Notes: []string{
			"extension beyond the paper: freeloading + forgery attack at 0–50% malicious partners, trust-oblivious vs reputation-weighted",
			fmt.Sprintf("model/sim star: %d clusters × 2 partner slots, malicious slots spread one per cluster first", p.SimClusters),
			fmt.Sprintf("live star: honest hub + %d access super-peers, %d searches per client, %v result windows", p.LiveLeaves, p.Searches, p.Window),
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
	tp := TrustSweepParams{Seed: p.Seed}
	if p.Scale > 0 && p.Scale < 1 {
		tp.Fractions = []float64{0, 0.5}
		tp.LiveLeaves = 4
		tp.Searches = 3
		tp.Window = 150 * time.Millisecond
		tp.SimDuration = math.Max(400, 1500*p.Scale)
	}
	var progress func(done, total int)
	if p.Progress != nil {
		progress = func(done, total int) { p.Progress("cells", done, total) }
	}
	res, err := RunTrustSweepResult(tp, progress)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}
