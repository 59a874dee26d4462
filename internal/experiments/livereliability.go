package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"spnet/internal/faults"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/workload"
)

// LiveRegime is one failure regime of the live reliability experiment, in
// virtual seconds — the same units as the simulated reliability table, so the
// two run the same failure processes.
type LiveRegime struct {
	Label string
	// MTBF is each partner's mean time between failures, virtual seconds.
	MTBF float64
	// Recovery is how long a killed partner stays down, virtual seconds.
	Recovery float64
}

// LiveParams shape the live reliability experiment: the simulated
// reliability experiment's failure regimes replayed against real TCP
// super-peers (network.Live) with real clients issuing seeded Poisson query
// workloads, under a wall-clock ↔ virtual-time bridge.
//
// The bridge: schedules are drawn in virtual seconds (the simulator's unit)
// and divided by TimeScale to get wall-clock times, so a 600-virtual-second
// regime replays in 5 wall seconds at TimeScale 120. Fault times and query
// arrival times are bit-deterministic in Seed; measured counts depend on
// real scheduling and are only statistically stable.
type LiveParams struct {
	// Clusters is the overlay ring size (default 3).
	Clusters int
	// Ks are the redundancy levels swept (default 1, 2, 3 — the simulated
	// table's grid).
	Ks []int
	// ClientsPerCluster is how many live clients join each cluster
	// (default 3).
	ClientsPerCluster int
	// Duration is each cell's length in virtual seconds (default 600).
	Duration float64
	// TimeScale compresses virtual seconds into wall clock: wall = virtual /
	// TimeScale (default 120).
	TimeScale float64
	// QueryRate is each client's Poisson query rate in queries per virtual
	// second (default: the Table 1 per-user rate, 9.26e-3 — at the default
	// TimeScale that is ~1.1 queries per wall second per client).
	QueryRate float64
	// QueryWindow is the wall-clock window each search collects results for
	// (default 200ms).
	QueryWindow time.Duration
	// Seed drives every schedule: fault times, query arrivals, backoff
	// jitter.
	Seed uint64
	// Regimes are the failure regimes to replay (default: the simulated
	// reliability experiment's harsh and benign regimes).
	Regimes []LiveRegime
	// Progress, when set, receives per-cell completion updates.
	Progress func(stage string, done, total int)
	// RowSink, when set, receives each result row as its cell completes —
	// the streaming-export hook (same shape as Params.RowSink, so CSVStream
	// plugs into both), letting interrupted runs keep partial results.
	RowSink func(stage string, columns, row []string)
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

func (lp *LiveParams) setDefaults() {
	if lp.Clusters <= 0 {
		lp.Clusters = 3
	}
	if len(lp.Ks) == 0 {
		lp.Ks = []int{1, 2, 3}
	}
	if lp.ClientsPerCluster <= 0 {
		lp.ClientsPerCluster = 3
	}
	if lp.Duration <= 0 {
		lp.Duration = 600
	}
	if lp.TimeScale <= 0 {
		lp.TimeScale = 120
	}
	if lp.QueryRate <= 0 {
		lp.QueryRate = workload.DefaultRates().QueryRate
	}
	if lp.QueryWindow <= 0 {
		lp.QueryWindow = 200 * time.Millisecond
	}
	if len(lp.Regimes) == 0 {
		lp.Regimes = []LiveRegime{
			{"harsh (MTBF 1000 s, recovery 300 s)", 1000, 300},
			{"benign (MTBF 2000 s, recovery 60 s)", 2000, 60},
		}
	}
	if lp.Logf == nil {
		lp.Logf = func(string, ...any) {}
	}
}

// liveCellResult is one (regime, k) cell's measurements.
type liveCellResult struct {
	failures    int // kills actually executed
	issued      int
	lost        int // searches that returned an error
	degraded    int // successful searches missing results vs healthy baseline
	busy        int // Busy (load-shed) responses observed
	resultsSum  int
	recoverySum float64 // virtual seconds
	recoveryN   int
}

// liveClient is one live client slot's tallies and failover observations.
type liveClient struct {
	issued, lost, degraded, busy, results int

	mu       sync.Mutex
	lostAt   []time.Time
	rejoinAt []time.Time
}

// runLiveCell replays one failure regime at one redundancy level against a
// real network and measures it.
func runLiveCell(lp *LiveParams, reg LiveRegime, k int, cellSeed uint64) (res liveCellResult, err error) {
	clock := bridge(lp.TimeScale)
	f, err := launchFleet(network.LiveConfig{
		Clusters: lp.Clusters,
		Partners: k,
		Seed:     cellSeed,
		Node: p2p.Options{
			HeartbeatInterval: clock.wallClamped(30, 100*time.Millisecond),
			DrainTimeout:      200 * time.Millisecond,
		},
	}, clock, lp.Logf)
	if err != nil {
		return res, err
	}
	defer f.close()

	// Live clients: each shares one file matching the common probe term, so
	// a fully healthy search returns Clusters×ClientsPerCluster results and
	// anything less is measurable partial-result degradation.
	healthy := lp.Clusters * lp.ClientsPerCluster
	clients := make([]liveClient, healthy)
	err = f.dial(lp.ClientsPerCluster, func(c, i int) (p2p.DialOptions, []p2p.SharedFile) {
		lc := &clients[c*lp.ClientsPerCluster+i]
		opts := clock.supervised(cellSeed+uint64(c*lp.ClientsPerCluster+i), 2*k)
		opts.OnEvent = func(ev p2p.Event) {
			lc.mu.Lock()
			switch ev.Type {
			case p2p.EventConnLost:
				lc.lostAt = append(lc.lostAt, time.Now())
			case p2p.EventRejoined:
				lc.rejoinAt = append(lc.rejoinAt, time.Now())
			}
			lc.mu.Unlock()
		}
		return opts, []p2p.SharedFile{{Index: 1, Title: fmt.Sprintf("needle c%dp%d", c, i)}}
	})
	if err != nil {
		return res, err
	}
	if err := f.settle(0); err != nil {
		return res, err
	}

	// The failure timeline: the same exponential per-partner failure process
	// the simulator injects, drawn in virtual seconds. Kills and their
	// recoveries merge into one ordered timeline.
	sched := faults.ExponentialSchedule(cellSeed+500, lp.Clusters, k, reg.MTBF, lp.Duration).Truncate(lp.Duration)
	var timeline []fault
	for _, ev := range sched {
		timeline = append(timeline, fault{at: ev.At, cluster: ev.Cluster, partner: ev.Partner})
		if back := ev.At + reg.Recovery; back < lp.Duration {
			timeline = append(timeline, fault{at: back, restart: true, cluster: ev.Cluster, partner: ev.Partner})
		}
	}
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].at < timeline[j].at })

	_, kills := f.replay(cellSeed, lp.ClientsPerCluster, lp.QueryRate, lp.Duration, timeline, func(c, i int) {
		lc := &clients[c*lp.ClientsPerCluster+i]
		out, err := f.clients[c][i].SearchDetailed("needle", lp.QueryWindow)
		lc.issued++
		if err != nil {
			lc.lost++
			return
		}
		lc.results += len(out.Results)
		lc.busy += out.Busy
		if len(out.Results) < healthy {
			lc.degraded++
		}
	})

	res.failures = len(kills)
	for i := range clients {
		lc := &clients[i]
		res.issued += lc.issued
		res.lost += lc.lost
		res.degraded += lc.degraded
		res.busy += lc.busy
		res.resultsSum += lc.results
		// Recovery times: pair each connection loss with the next rejoin,
		// reported in virtual seconds through the bridge.
		lc.mu.Lock()
		ri := 0
		for _, lost := range lc.lostAt {
			for ri < len(lc.rejoinAt) && lc.rejoinAt[ri].Before(lost) {
				ri++
			}
			if ri >= len(lc.rejoinAt) {
				break
			}
			res.recoverySum += clock.virtual(lc.rejoinAt[ri].Sub(lost))
			res.recoveryN++
			ri++
		}
		lc.mu.Unlock()
	}
	return res, nil
}

// liveReliabilityColumns is the live table's header, shared with the CSV
// stream.
var liveReliabilityColumns = []string{
	"Failure regime", "k", "Failures", "Queries issued", "Queries lost",
	"Lost fraction", "Degraded results", "Mean recovery (s)", "Busy",
}

// RunLiveReliability executes the reliability experiment's failure regimes
// over a real TCP super-peer network and reports the live counterparts of
// the simulated table's columns: lost-query fraction, recovery time, and
// partial-result degradation. Cells run sequentially — each one is a real
// network saturating real sockets, and overlapping them would perturb the
// measurements.
func RunLiveReliability(lp LiveParams) (*Report, error) {
	lp.setDefaults()
	type cell struct {
		regime int
		k      int
	}
	var cells []cell
	for ri := range lp.Regimes {
		for _, k := range lp.Ks {
			cells = append(cells, cell{ri, k})
		}
	}
	rows := make([][]string, 0, len(cells))
	for i, c := range cells {
		reg := lp.Regimes[c.regime]
		cellSeed := lp.Seed + uint64(c.regime*1000+c.k)
		res, err := runLiveCell(&lp, reg, c.k, cellSeed)
		if err != nil {
			return nil, fmt.Errorf("live cell %s k=%d: %w", reg.Label, c.k, err)
		}
		lostFrac := 0.0
		if res.issued > 0 {
			lostFrac = float64(res.lost) / float64(res.issued)
		}
		degFrac := 0.0
		if ok := res.issued - res.lost; ok > 0 {
			degFrac = float64(res.degraded) / float64(ok)
		}
		meanRec := "-"
		if res.recoveryN > 0 {
			meanRec = fmt.Sprintf("%.0f", res.recoverySum/float64(res.recoveryN))
		}
		row := []string{
			reg.Label,
			fmt.Sprint(c.k),
			fmt.Sprint(res.failures),
			fmt.Sprint(res.issued),
			fmt.Sprint(res.lost),
			fmt.Sprintf("%.2f%%", 100*lostFrac),
			fmt.Sprintf("%.2f%%", 100*degFrac),
			meanRec,
			fmt.Sprint(res.busy),
		}
		rows = append(rows, row)
		if lp.RowSink != nil {
			lp.RowSink("live failure regimes", liveReliabilityColumns, row)
		}
		if lp.Progress != nil {
			lp.Progress("live failure regimes", i+1, len(cells))
		}
	}
	return &Report{
		ID:    "livereliability",
		Title: "Live reliability: the failure regimes replayed on real TCP super-peers",
		Notes: []string{
			fmt.Sprintf("time-scale bridge: %g virtual s per wall s; %g virtual s per cell (%.1f wall s)",
				lp.TimeScale, lp.Duration, lp.Duration/lp.TimeScale),
			fmt.Sprintf("%d clusters × k partners, %d clients/cluster, per-client query rate %.3g/virtual s",
				lp.Clusters, lp.ClientsPerCluster, lp.QueryRate),
			"fault and arrival schedules are deterministic per seed; measured counts depend on real scheduling",
			"degraded = successful searches returning fewer results than the healthy-network baseline",
		},
		Tables: []Table{{
			Title:   "live failure regimes",
			Columns: liveReliabilityColumns,
			Rows:    rows,
		}},
	}, nil
}
