package experiments

import (
	"fmt"
	"math"
	"time"

	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/topology"
)

// loadScenario is the model-vs-measured load validation: the same small
// deterministic network is evaluated analytically, simulated, and run as
// real TCP super-peers with telemetry scraped over HTTP, then the three
// per-super-peer bandwidth measurements are laid side by side.
//
// The configuration is chosen so all three layers describe the same system
// exactly: k = 1 (the live flood sends to every partner of every neighbor,
// which equals the model only when each neighbor has one partner), a clique
// overlay (any size: the live fleet is wired from the instance's own
// graph), a single query class matching every collection with probability
// 1, and no updates or departures, so the one-shot live joins mirror the
// model's zero join rate. TTL 7 — anything >= 2 gives full reach on a small
// clique. Query and response traffic — the paper's dominant Table 2
// components — are the classes compared. The simulator has always run at
// seed+1.
func loadScenario(seed uint64) Scenario {
	return Scenario{
		Planted: network.Planted{
			Graph:     topology.NewClique(3),
			Partners:  1,
			Clients:   3,
			Topics:    1,
			QueryRate: 0.05,
			QueryLen:  len(routingTopic(0)),
			TTL:       7,
		},
		// Longer than the live window: virtual time is cheap and
		// convergence helps.
		SimDuration: 8000,
		Live:        LiveLoad{Duration: 900, TimeScale: 120, Window: 60 * time.Millisecond},
		Seed:        seed + 1,
	}
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

// queryRespBps sums the query and response classes of one column in one
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

// runLoadValidation executes the three-way validation of s and returns both
// the comparison rows and the printable report.
func runLoadValidation(s Scenario) (*LoadValidationResult, error) {
	tw, err := runThreeWay(s)
	if err != nil {
		return nil, err
	}
	p := s.Planted
	n := p.Graph.N()
	if len(tw.Live.IDs) != n || len(tw.Sim.SuperPeerClassBps) != n {
		return nil, fmt.Errorf("loadvalidation: %d live super-peers, %d simulated clusters, want %d",
			len(tw.Live.IDs), len(tw.Sim.SuperPeerClassBps), n)
	}

	rows := make([]LoadValidationRow, n)
	for v := range rows {
		rows[v] = LoadValidationRow{
			ID:    tw.Live.IDs[v],
			Model: tw.Model.SuperPeerClassBps(v),
			Sim:   tw.Sim.SuperPeerClassBps[v],
			Live:  tw.Live.ClassBps[v],
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
	dirs := []metrics.Dir{metrics.DirIn, metrics.DirOut}
	for _, row := range rows {
		for _, c := range []metrics.Class{metrics.ClassQuery, metrics.ClassResponse} {
			for _, d := range dirs {
				addRow(row.ID, c.String()+" "+d.String(), row.Model.Get(c, d), row.Sim.Get(c, d), row.Live.Get(c, d))
			}
		}
		for _, d := range dirs {
			addRow(row.ID, "query+response "+d.String(),
				queryRespBps(row.Model, d), queryRespBps(row.Sim, d), queryRespBps(row.Live, d))
		}
	}

	report := &Report{
		Notes: []string{
			fmt.Sprintf("%d single-partner super-peers on a clique, %d clients each, per-user query rate %g/virtual s",
				n, p.Clients, p.QueryRate),
			fmt.Sprintf("live window %g virtual s at time-scale %g (%.1f wall s); simulator %g virtual s",
				s.Live.Duration, s.Live.TimeScale, s.Live.Duration/s.Live.TimeScale, s.SimDuration),
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
	s := loadScenario(p.Seed)
	if p.Scale > 0 && p.Scale < 1 {
		s.Live.Duration = math.Max(60, 900*p.Scale)
		s.SimDuration = math.Max(400, 8000*p.Scale)
	}
	res, err := runLoadValidation(s)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}
