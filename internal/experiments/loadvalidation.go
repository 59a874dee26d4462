package experiments

import (
	"fmt"
	"math"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/sim"
	"spnet/internal/topology"
)

// loadProbeTerm is the common query term of the validation workload; every
// live client shares exactly one file matching it, so expected results per
// cluster are known in closed form.
const loadProbeTerm = "needle"

// LoadValidationParams shape the model-vs-measured load validation: the same
// small deterministic network is evaluated analytically, simulated, and run
// as real TCP super-peers with telemetry scraped over HTTP, then the three
// per-super-peer bandwidth measurements are laid side by side.
//
// The configuration is chosen so all three layers describe the same system
// exactly: k = 1 (the live flood sends to every partner of every neighbor,
// which equals the model only when each neighbor has one partner), a clique
// overlay (Clusters super-peers fully linked; the live fleet is wired from
// the instance's own graph), a single query class matching every collection
// with probability 1, updates disabled, and effectively infinite lifespans so
// the one-shot live joins mirror the model's zero join rate.
// Query and response traffic — the paper's dominant Table 2 components — are
// the classes compared.
type LoadValidationParams struct {
	// Clusters is the number of single-partner super-peers (default 3).
	Clusters int
	// ClientsPerCluster is how many clients join each super-peer, each
	// sharing one matching file (default 3).
	ClientsPerCluster int
	// QueryRate is each user's Poisson query rate in queries per virtual
	// second; super-peers are users too (default 0.05).
	QueryRate float64
	// Duration is the live measurement window in virtual seconds
	// (default 900).
	Duration float64
	// TimeScale compresses virtual seconds into wall clock: wall =
	// virtual / TimeScale (default 120).
	TimeScale float64
	// QueryWindow is the wall-clock window each live search collects
	// results for (default 60ms).
	QueryWindow time.Duration
	// SimDuration is the simulator's run length in virtual seconds
	// (default 8000; longer than the live window since virtual time is
	// cheap and convergence helps).
	SimDuration float64
	// TTL is the query TTL (default 7; anything >= 2 gives full reach on
	// a small clique).
	TTL int
	// Seed drives the arrival schedules and the simulator.
	Seed uint64
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

func (p *LoadValidationParams) setDefaults() {
	if p.Clusters <= 0 {
		p.Clusters = 3
	}
	if p.ClientsPerCluster <= 0 {
		p.ClientsPerCluster = 3
	}
	if p.QueryRate <= 0 {
		p.QueryRate = 0.05
	}
	if p.Duration <= 0 {
		p.Duration = 900
	}
	if p.TimeScale <= 0 {
		p.TimeScale = 120
	}
	if p.QueryWindow <= 0 {
		p.QueryWindow = 60 * time.Millisecond
	}
	if p.SimDuration <= 0 {
		p.SimDuration = 8000
	}
	if p.TTL <= 0 {
		p.TTL = 7
	}
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
}

// instance builds the exactly-known network all three layers share: every
// cluster has one partner with no files and ClientsPerCluster clients with
// one matching file each, and the single query class matches every file.
func (p *LoadValidationParams) instance() (*network.Instance, error) {
	return network.NewPlanted(network.Planted{
		Graph:     topology.NewClique(p.Clusters),
		Partners:  1,
		Clients:   p.ClientsPerCluster,
		Topics:    1,
		QueryRate: p.QueryRate,
		QueryLen:  len(loadProbeTerm),
		TTL:       p.TTL,
	})
}

// LoadValidationRow is one super-peer's three-way bandwidth comparison, all
// values in bits per virtual second broken down by taxonomy class.
type LoadValidationRow struct {
	// ID is the live harness's stable super-peer label.
	ID string
	// Model is the analytical prediction (Result.SuperPeerClassBps).
	Model metrics.ByClass
	// Sim is the simulator's measurement (Measured.SuperPeerClassBps).
	Sim metrics.ByClass
	// Live is the telemetry-scraped measurement, converted to virtual
	// seconds through the time bridge. Only classes the model drives
	// (query, response) are meaningful for comparison.
	Live metrics.ByClass
}

// QueryRespBps sums the query and response classes of one column in one
// direction — the compared quantity.
func queryRespBps(b metrics.ByClass, d metrics.Dir) float64 {
	return b.Sum(d, metrics.ClassQuery, metrics.ClassResponse)
}

// LoadValidationResult carries the comparison rows alongside the printable
// report, for tests to assert tolerances on.
type LoadValidationResult struct {
	Rows   []LoadValidationRow
	Report *Report
}

// MaxRelErrLiveVsModel returns the worst relative error between live-measured
// and analytically predicted query+response bandwidth over all super-peers
// and directions.
func (r *LoadValidationResult) MaxRelErrLiveVsModel() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		for _, d := range []metrics.Dir{metrics.DirIn, metrics.DirOut} {
			if e := relErr(queryRespBps(row.Live, d), queryRespBps(row.Model, d)); e > worst {
				worst = e
			}
		}
	}
	return worst
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / want
}

// runLiveLoadCell boots the instance's overlay as a live fleet, drives the
// seeded workload, and returns each super-peer's measured per-class bandwidth
// in bits per virtual second, keyed in the harness's stable super-peer order.
func runLiveLoadCell(p *LoadValidationParams, inst *network.Instance) (ids []string, measured []metrics.ByClass, err error) {
	f, err := launchFleet(network.LiveConfig{
		Overlay:   inst.Graph,
		Partners:  1,
		Seed:      p.Seed,
		Telemetry: true,
		Node: p2p.Options{
			TTL:               p.TTL,
			HeartbeatInterval: -1, // keep the ping class quiet
			DrainTimeout:      200 * time.Millisecond,
		},
	}, bridge(p.TimeScale), p.Logf)
	if err != nil {
		return nil, nil, err
	}
	defer f.close()

	// Clients: each shares one file matching the probe term, mirroring the
	// planted instance's one-file collections.
	err = f.dial(p.ClientsPerCluster, func(c, i int) (p2p.DialOptions, []p2p.SharedFile) {
		return p2p.DialOptions{}, []p2p.SharedFile{
			{Index: uint32(i + 1), Title: fmt.Sprintf("%s c%dp%d", loadProbeTerm, c, i)},
		}
	})
	if err != nil {
		return nil, nil, err
	}
	// Joins must be indexed before the baseline scrape.
	if err := f.settle(0); err != nil {
		return nil, nil, err
	}
	base, err := f.scrape()
	if err != nil {
		return nil, nil, err
	}

	// The workload: every user — client or super-peer partner — issues
	// Poisson queries at QueryRate, exactly the model's user population; a
	// cluster's last user slot is its super-peer.
	start, _ := f.replay(p.Seed, p.ClientsPerCluster+1, p.QueryRate, p.Duration, nil, func(c, u int) {
		var err error
		if u < p.ClientsPerCluster {
			_, err = f.clients[c][u].SearchDetailed(loadProbeTerm, p.QueryWindow)
		} else {
			_, err = f.live.Node(c, 0).Search(loadProbeTerm, p.QueryWindow)
		}
		if err != nil {
			p.Logf("loadvalidation: query c%du%d: %v", c, u, err)
		}
	})
	// Short drain so in-flight forwards land before the closing scrape.
	time.Sleep(100 * time.Millisecond)
	virtualElapsed := f.virtual(time.Since(start))

	end, err := f.scrape()
	if err != nil {
		return nil, nil, err
	}
	for i, sp := range f.live.SuperPeers() {
		delta := end[i]
		delta.Merge(base[i].Scale(-1))
		// Bytes over the actual elapsed window, converted to bits per
		// virtual second — late-firing arrivals dilate elapsed time and the
		// division self-corrects for it.
		measured = append(measured, delta.Scale(8/virtualElapsed))
		ids = append(ids, sp.ID)
	}
	return ids, measured, nil
}

// RunLoadValidationResult executes the full three-way validation and returns
// both the comparison rows and the printable report.
func RunLoadValidationResult(p LoadValidationParams) (*LoadValidationResult, error) {
	p.setDefaults()
	inst, err := p.instance()
	if err != nil {
		return nil, err
	}

	res := analysis.Evaluate(inst)
	m, err := sim.Run(inst, sim.Options{Duration: p.SimDuration, Seed: p.Seed + 1})
	if err != nil {
		return nil, err
	}
	ids, liveMeasured, err := runLiveLoadCell(&p, inst)
	if err != nil {
		return nil, err
	}
	if len(ids) != p.Clusters || len(m.SuperPeerClassBps) != p.Clusters {
		return nil, fmt.Errorf("loadvalidation: %d live super-peers, %d simulated clusters, want %d",
			len(ids), len(m.SuperPeerClassBps), p.Clusters)
	}

	rows := make([]LoadValidationRow, p.Clusters)
	for v := 0; v < p.Clusters; v++ {
		rows[v] = LoadValidationRow{
			ID:    ids[v],
			Model: res.SuperPeerClassBps(v),
			Sim:   m.SuperPeerClassBps[v],
			Live:  liveMeasured[v],
		}
	}

	columns := []string{
		"Super-peer", "Component", "Model (bps)", "Sim (bps)", "Live (bps)",
		"Sim err", "Live err",
	}
	var tableRows [][]string
	addRow := func(id, label string, model, simv, livev float64) {
		tableRows = append(tableRows, []string{
			id, label,
			fmt.Sprintf("%.4g", model),
			fmt.Sprintf("%.4g", simv),
			fmt.Sprintf("%.4g", livev),
			fmt.Sprintf("%.1f%%", 100*relErr(simv, model)),
			fmt.Sprintf("%.1f%%", 100*relErr(livev, model)),
		})
	}
	for _, row := range rows {
		for _, comp := range []struct {
			label string
			get   func(metrics.ByClass) float64
		}{
			{"query in", func(b metrics.ByClass) float64 { return b.Get(metrics.ClassQuery, metrics.DirIn) }},
			{"query out", func(b metrics.ByClass) float64 { return b.Get(metrics.ClassQuery, metrics.DirOut) }},
			{"response in", func(b metrics.ByClass) float64 { return b.Get(metrics.ClassResponse, metrics.DirIn) }},
			{"response out", func(b metrics.ByClass) float64 { return b.Get(metrics.ClassResponse, metrics.DirOut) }},
			{"query+response in", func(b metrics.ByClass) float64 { return queryRespBps(b, metrics.DirIn) }},
			{"query+response out", func(b metrics.ByClass) float64 { return queryRespBps(b, metrics.DirOut) }},
		} {
			addRow(row.ID, comp.label, comp.get(row.Model), comp.get(row.Sim), comp.get(row.Live))
		}
	}

	report := &Report{
		ID:    "loadvalidation",
		Title: "Validation: analytical vs simulated vs live-measured super-peer load",
		Notes: []string{
			fmt.Sprintf("%d single-partner super-peers on a clique, %d clients each, per-user query rate %g/virtual s",
				p.Clusters, p.ClientsPerCluster, p.QueryRate),
			fmt.Sprintf("live window %g virtual s at time-scale %g (%.1f wall s); simulator %g virtual s",
				p.Duration, p.TimeScale, p.Duration/p.TimeScale, p.SimDuration),
			"live column scraped from each super-peer's /metrics endpoint (spnet_message_bytes_total)",
			"query and response classes are the compared components; joins are one-shot live vs rate-based in the model, pings and busy have no analytical counterpart",
		},
		Tables: []Table{{
			Title:   "per-super-peer bandwidth, model vs simulator vs live",
			Columns: columns,
			Rows:    tableRows,
		}},
	}
	return &LoadValidationResult{Rows: rows, Report: report}, nil
}

// runLoadValidationDefault adapts the generic experiment Params: Scale
// shortens the live and simulated windows proportionally (sampling noise
// grows as windows shrink — full scale is the validated configuration).
func runLoadValidationDefault(p Params) (*Report, error) {
	lp := LoadValidationParams{Seed: p.Seed}
	if p.Scale > 0 && p.Scale < 1 {
		lp.Duration = math.Max(60, 900*p.Scale)
		lp.SimDuration = math.Max(400, 8000*p.Scale)
	}
	res, err := RunLoadValidationResult(lp)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}
