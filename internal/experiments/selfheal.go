package experiments

import (
	"fmt"
	"strings"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/control"
	"spnet/internal/link"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/sim"
	"spnet/internal/stats"
)

// SelfHealParams shape the self-healing experiment: a live super-peer fleet
// loses a loaded partner mid-run, once with the fleet controller
// (internal/control) watching and once without, and the lost-query fraction
// quantifies what the Section 5.3 decision rules buy when they are pushed to
// real nodes instead of simulated. A sim-adaptive cell (the simulator's
// in-process version of the same rules) runs beside the live arms as the
// baseline the paper's machinery predicts.
//
// The failure is engineered to hurt: clients are spread across a cluster's
// partners with per-partner capacity set exactly to their share, so when one
// partner dies its orphans find every survivor full (helloBusy) and stay
// disconnected — until the controller detects the death and promotes the
// survivor to double capacity. Controller-off, the orphans stay out for the
// rest of the run.
type SelfHealParams struct {
	// Clusters is the overlay ring size (default 2).
	Clusters int
	// Partners is the k-redundancy level (default 2).
	Partners int
	// ClientsPerCluster is how many live clients join each cluster; spread
	// round-robin across partners (default 4).
	ClientsPerCluster int
	// Duration is the run length in virtual seconds (default 600).
	Duration float64
	// TimeScale compresses virtual seconds into wall clock (default 120).
	TimeScale float64
	// QueryRate is each client's Poisson query rate per virtual second
	// (default 0.03).
	QueryRate float64
	// QueryWindow is the wall-clock result-collection window per search
	// (default 150ms).
	QueryWindow time.Duration
	// KillAt is when the loaded partner (cluster 0, partner 0) is killed,
	// in virtual seconds (default Duration/3).
	KillAt float64
	// ScrapeInterval is the controller's decision tick in virtual seconds
	// (default 20).
	ScrapeInterval float64
	// Seed drives every schedule.
	Seed uint64
	// SimGraphSize sizes the sim-adaptive baseline network; 0 disables the
	// baseline cell.
	SimGraphSize int
	// Progress, when set, receives per-arm completion updates.
	Progress func(stage string, done, total int)
	// RowSink, when set, receives each result row as its arm completes.
	RowSink func(stage string, columns, row []string)
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

func (p *SelfHealParams) setDefaults() {
	if p.Clusters <= 0 {
		p.Clusters = 2
	}
	if p.Partners <= 0 {
		p.Partners = 2
	}
	if p.ClientsPerCluster <= 0 {
		p.ClientsPerCluster = 4
	}
	if p.Duration <= 0 {
		p.Duration = 600
	}
	if p.TimeScale <= 0 {
		p.TimeScale = 120
	}
	if p.QueryRate <= 0 {
		p.QueryRate = 0.03
	}
	if p.QueryWindow <= 0 {
		p.QueryWindow = 150 * time.Millisecond
	}
	if p.KillAt <= 0 {
		p.KillAt = p.Duration / 3
	}
	if p.ScrapeInterval <= 0 {
		p.ScrapeInterval = 20
	}
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
}

// clientShare is the per-partner client budget: capacity is provisioned
// exactly, so a dead partner's clients cannot re-home without a promotion.
func (p *SelfHealParams) clientShare() int {
	share := (p.ClientsPerCluster + p.Partners - 1) / p.Partners
	if share < 1 {
		share = 1
	}
	return share
}

// SelfHealArm is one live arm's measurements.
type SelfHealArm struct {
	Issued   int
	Lost     int
	LostFrac float64
}

// SelfHealResult carries the raw measurements the table and the e2e tests
// read.
type SelfHealResult struct {
	Off SelfHealArm
	On  SelfHealArm
	// DetectVirtual is kill → EvDead in virtual seconds (controller-on arm).
	DetectVirtual float64
	// ReconfigVirtual is kill → promotion acked, virtual seconds.
	ReconfigVirtual float64
	// DirectivesAcked counts acked directives in the on arm.
	DirectivesAcked int
	// Events is the on arm's full controller event log.
	Events []control.Event
	// SimBaselineFrac is the sim-adaptive cell's lost fraction (-1 when the
	// baseline is disabled).
	SimBaselineFrac float64
	// SimFailures is the number of failures the sim cell injected.
	SimFailures int
}

// rotate returns addrs rotated so index `from` comes first — each client's
// ranked redundant-partner list starts at its home partner.
func rotate(addrs []string, from int) []string {
	out := make([]string, 0, len(addrs))
	for i := range addrs {
		out = append(out, addrs[(from+i)%len(addrs)])
	}
	return out
}

// runSelfHealArm runs one live arm: boot the fleet, join the clients, replay
// the query plan, kill the target partner at KillAt, and (controller arm
// only) let the control plane respond.
func runSelfHealArm(p *SelfHealParams, withController bool) (SelfHealArm, *control.Controller, time.Time, error) {
	var arm SelfHealArm
	var killedAt time.Time
	share := p.clientShare()
	clock := bridge(p.TimeScale)
	f, err := launchFleet(network.LiveConfig{
		Clusters:  p.Clusters,
		Partners:  p.Partners,
		Seed:      p.Seed,
		Telemetry: true,
		Node: p2p.Options{
			MaxClients:        share,
			TTL:               7,
			HeartbeatInterval: clock.wallClamped(30, 100*time.Millisecond),
			DrainTimeout:      200 * time.Millisecond,
		},
	}, clock, p.Logf)
	if err != nil {
		return arm, nil, killedAt, err
	}
	defer f.close()

	var ctrl *control.Controller
	if withController {
		var nodes []control.NodeConfig
		for _, sp := range f.live.SuperPeers() {
			nodes = append(nodes, control.NodeConfig{
				ID: sp.ID, Addr: sp.Addr, Telemetry: sp.Telemetry,
				Cluster: sp.Cluster, Partner: sp.Partner,
			})
		}
		ctrl = control.New(control.Options{
			Nodes:          nodes,
			ScrapeInterval: clock.wallClamped(p.ScrapeInterval, 50*time.Millisecond),
			RPCTimeout:     500 * time.Millisecond,
			DialTimeout:    500 * time.Millisecond,
			Backoff:        link.Backoff{Initial: 20 * time.Millisecond, Max: 200 * time.Millisecond},
			Seed:           p.Seed + 1,
			ClientCapacity: share,
			BaseTTL:        7,
			TimeScale:      p.TimeScale,
			Dial:           f.live.Faults().Dialer(network.ControllerLabel),
			Logf:           p.Logf,
		})
		ctrl.Start()
		defer ctrl.Close()
	}

	// Clients, spread round-robin across partners with ranked failover lists
	// starting at their home partner.
	err = f.dial(p.ClientsPerCluster, func(c, i int) (p2p.DialOptions, []p2p.SharedFile) {
		opts := clock.supervised(p.Seed+uint64(c*p.ClientsPerCluster+i), 2*p.Partners)
		opts.Addrs = rotate(f.live.ClusterAddrs(c), i%p.Partners)
		return opts, []p2p.SharedFile{{Index: 1, Title: fmt.Sprintf("needle c%dp%d", c, i)}}
	})
	if err != nil {
		return arm, nil, killedAt, fmt.Errorf("selfheal: %w", err)
	}
	if err := f.settle(0); err != nil {
		return arm, nil, killedAt, fmt.Errorf("selfheal: %w", err)
	}

	type tally struct{ issued, lost int }
	tallies := make([]tally, p.Clusters*p.ClientsPerCluster)
	_, kills := f.replay(p.Seed, p.ClientsPerCluster, p.QueryRate, p.Duration,
		[]fault{{at: p.KillAt, cluster: 0, partner: 0}},
		func(c, i int) {
			tl := &tallies[c*p.ClientsPerCluster+i]
			_, err := f.clients[c][i].Search("needle", p.QueryWindow)
			tl.issued++
			if err != nil {
				tl.lost++
			}
		})
	if len(kills) > 0 {
		killedAt = kills[0]
	}

	for i := range tallies {
		arm.Issued += tallies[i].issued
		arm.Lost += tallies[i].lost
	}
	if arm.Issued > 0 {
		arm.LostFrac = float64(arm.Lost) / float64(arm.Issued)
	}
	return arm, ctrl, killedAt, nil
}

// RunSelfHealResult runs both live arms (and the sim-adaptive baseline when
// enabled) and returns the raw measurements.
func RunSelfHealResult(p SelfHealParams) (*SelfHealResult, error) {
	p.setDefaults()
	res := &SelfHealResult{DetectVirtual: -1, ReconfigVirtual: -1, SimBaselineFrac: -1}
	total := 2
	if p.SimGraphSize > 0 {
		total = 3
	}
	progress := func(done int) {
		if p.Progress != nil {
			p.Progress("self-heal arms", done, total)
		}
	}

	off, _, _, err := runSelfHealArm(&p, false)
	if err != nil {
		return nil, fmt.Errorf("controller-off arm: %w", err)
	}
	res.Off = off
	progress(1)

	on, ctrl, killedAt, err := runSelfHealArm(&p, true)
	if err != nil {
		return nil, fmt.Errorf("controller-on arm: %w", err)
	}
	res.On = on
	res.Events = ctrl.Events()
	for _, e := range res.Events {
		if e.Type == control.EvAcked {
			res.DirectivesAcked++
		}
		if killedAt.IsZero() || e.Time.Before(killedAt) {
			continue
		}
		since := bridge(p.TimeScale).virtual(e.Time.Sub(killedAt))
		if e.Type == control.EvDead && e.Node == "sp-0-0" && res.DetectVirtual < 0 {
			res.DetectVirtual = since
		}
		if e.Type == control.EvAcked && e.Node != "sp-0-0" && res.ReconfigVirtual < 0 &&
			strings.Contains(e.Detail, "promote-partner") {
			res.ReconfigVirtual = since
		}
	}
	progress(2)

	if p.SimGraphSize > 0 {
		inst, err := network.Generate(network.Config{
			GraphType:    network.PowerLaw,
			GraphSize:    p.SimGraphSize,
			ClusterSize:  10,
			AvgOutdegree: 3.1,
			TTL:          5,
			KRedundancy:  p.Partners,
		}, nil, stats.NewRNG(p.Seed+50))
		if err != nil {
			return nil, fmt.Errorf("sim baseline: %w", err)
		}
		m, err := sim.Run(inst, sim.Options{
			Duration: 1200,
			Seed:     p.Seed + 100,
			Failures: &sim.FailureOptions{MTBF: 1000, RecoveryDelay: 300},
			Adaptive: &sim.AdaptiveOptions{
				Limit:    analysis.Load{InBps: 1e6, OutBps: 1e6, ProcHz: 1e9},
				Interval: 60,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("sim baseline: %w", err)
		}
		if total := m.QueriesIssued + m.ClientQueriesLost; total > 0 {
			res.SimBaselineFrac = float64(m.ClientQueriesLost) / float64(total)
		} else {
			res.SimBaselineFrac = 0
		}
		res.SimFailures = m.FailuresInjected
		progress(3)
	}
	return res, nil
}

var selfHealColumns = []string{
	"Arm", "Queries issued", "Queries lost", "Lost fraction",
	"Detect (virtual s)", "Reconfig (virtual s)", "Directives acked",
}

// RunSelfHeal runs the experiment and renders the comparison table.
func RunSelfHeal(p SelfHealParams) (*Report, error) {
	p.setDefaults()
	res, err := RunSelfHealResult(p)
	if err != nil {
		return nil, err
	}
	fmtLat := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", v)
	}
	rows := [][]string{
		{"live, controller off", fmt.Sprint(res.Off.Issued), fmt.Sprint(res.Off.Lost),
			fmt.Sprintf("%.2f%%", 100*res.Off.LostFrac), "-", "-", "-"},
		{"live, controller on", fmt.Sprint(res.On.Issued), fmt.Sprint(res.On.Lost),
			fmt.Sprintf("%.2f%%", 100*res.On.LostFrac),
			fmtLat(res.DetectVirtual), fmtLat(res.ReconfigVirtual), fmt.Sprint(res.DirectivesAcked)},
	}
	if res.SimBaselineFrac >= 0 {
		rows = append(rows, []string{
			"sim, adaptive rules (MTBF 1000 s)", "-", "-",
			fmt.Sprintf("%.2f%%", 100*res.SimBaselineFrac), "-", "-", "-",
		})
	}
	if p.RowSink != nil {
		for _, row := range rows {
			p.RowSink("self-healing", selfHealColumns, row)
		}
	}
	return &Report{
		ID:    "selfheal",
		Title: "Self-healing: fleet controller vs no controller on a live super-peer kill",
		Notes: []string{
			fmt.Sprintf("time-scale bridge: %g virtual s per wall s; %g virtual s per arm", p.TimeScale, p.Duration),
			fmt.Sprintf("%d clusters × %d partners, %d clients/cluster, per-partner capacity %d (exact share)",
				p.Clusters, p.Partners, p.ClientsPerCluster, p.clientShare()),
			fmt.Sprintf("sp-0-0 killed at %g virtual s; orphans are refused (helloBusy) until the controller promotes the survivor", p.KillAt),
			"detect = kill → dead declared; reconfig = kill → promotion acked by the survivor",
		},
		Tables: []Table{{
			Title:   "self-healing",
			Columns: selfHealColumns,
			Rows:    rows,
		}},
	}, nil
}

func runSelfHealDefault(p Params) (*Report, error) {
	sp := SelfHealParams{
		Seed:         p.Seed,
		SimGraphSize: p.scaled(2000, 300),
		Progress:     p.Progress,
		RowSink:      p.RowSink,
	}
	if p.scale() < 0.2 {
		// Tiny-scale (smoke/benchmark) runs: ~2 wall seconds per live arm.
		sp.Duration = 240
		sp.QueryRate = 0.06
	}
	return RunSelfHeal(sp)
}
