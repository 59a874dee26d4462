package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"spnet/internal/network"
	"spnet/internal/topology"
)

// failureOpts draws every partner slot of cfg an exponential failure schedule
// of mean mtbf over duration seconds.
func failureOpts(cfg network.Config, mtbf, recovery, duration float64) *FailureOptions {
	return &FailureOptions{
		RecoveryDelay: recovery,
		Schedule:      ExponentialSchedule(1, cfg.NumClusters(), cfg.Partners(), mtbf, duration),
	}
}

func TestFailuresInjectQueryLoss(t *testing.T) {
	// Non-redundant clusters with frequent failures and slow recovery lose
	// a measurable fraction of client queries.
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 400,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 5}
	inst := generate(t, cfg, lowVarProfile(), 1)
	m, err := Run(inst, Options{
		Duration: 2000, Seed: 2, Churn: false,
		Failures: failureOpts(cfg, 1000, 300, 2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.FailuresInjected == 0 {
		t.Fatal("no failures injected")
	}
	if m.ClientQueriesLost == 0 {
		t.Error("no client queries lost despite single-partner outages")
	}
	// The outage fraction is roughly recovery/(MTBF+recovery) ≈ 23%; the
	// lost-query fraction should be the same order.
	frac := float64(m.ClientQueriesLost) / float64(m.QueriesIssued+m.ClientQueriesLost)
	if frac < 0.05 || frac > 0.5 {
		t.Errorf("lost-query fraction = %.2f, want ~0.2", frac)
	}
}

func TestRedundancySurvivesFailures(t *testing.T) {
	// Section 3.2's reliability claim, measured: with 2-redundancy and the
	// same failure process, the co-partner keeps serving, so essentially no
	// client query is lost.
	base := network.Config{GraphType: network.PowerLaw, GraphSize: 400,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 5}
	red := base
	red.KRedundancy = 2

	// Recovery (60 s) far below the MTBF (2000 s): the regime where the
	// paper's "much lower probability that all partners fail before any is
	// replaced" holds strongly.
	run := func(cfg network.Config) *Measured {
		inst := generate(t, cfg, lowVarProfile(), 3)
		m, err := Run(inst, Options{
			Duration: 4000, Seed: 4, Churn: false,
			Failures: failureOpts(cfg, 2000, 60, 4000),
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := run(base)
	redundant := run(red)
	if plain.ClientQueriesLost == 0 {
		t.Fatal("baseline lost no queries; failure injection broken")
	}
	if redundant.FailuresInjected == 0 {
		t.Fatal("no failures injected in the redundant run")
	}
	plainFrac := float64(plain.ClientQueriesLost) / float64(plain.QueriesIssued+plain.ClientQueriesLost)
	redFrac := float64(redundant.ClientQueriesLost) / float64(redundant.QueriesIssued+redundant.ClientQueriesLost)
	if redFrac > plainFrac/4 {
		t.Errorf("redundant lost fraction %.3f not far below plain %.3f", redFrac, plainFrac)
	}
}

func TestFailureRecoveryRestoresService(t *testing.T) {
	// With fast recovery the long-run results per query approach the
	// failure-free level.
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 300,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 5}
	instA := generate(t, cfg, lowVarProfile(), 5)
	noFail, err := Run(instA, Options{Duration: 1500, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	instB := generate(t, cfg, lowVarProfile(), 5)
	fastRecovery, err := Run(instB, Options{
		Duration: 1500, Seed: 6,
		Failures: failureOpts(cfg, 800, 10, 1500),
	})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(fastRecovery.ResultsPerQuery, noFail.ResultsPerQuery) > 0.15 {
		t.Errorf("fast-recovery results %.1f too far from failure-free %.1f",
			fastRecovery.ResultsPerQuery, noFail.ResultsPerQuery)
	}
}

func TestFailuresDeterministic(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 200,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 4, KRedundancy: 2}
	opts := Options{Duration: 800, Seed: 7, Churn: true, Failures: failureOpts(cfg, 500, 100, 800)}
	a, err := Run(generate(t, cfg, nil, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(generate(t, cfg, nil, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.FailuresInjected != b.FailuresInjected || a.ClientQueriesLost != b.ClientQueriesLost ||
		a.Aggregate != b.Aggregate {
		t.Error("failure injection is not deterministic")
	}
}

func TestScheduledFailuresReplay(t *testing.T) {
	// Exactly the scheduled in-range, in-horizon events fire.
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 200,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 4}
	sched := Schedule{
		{At: 100, Cluster: 0, Partner: 0},
		{At: 250, Cluster: 3, Partner: 0},
		{At: 400, Cluster: 7, Partner: 0},
		{At: 900, Cluster: 5000, Partner: 0}, // out of range: dropped
		{At: 2500, Cluster: 1, Partner: 0},   // past horizon: dropped
	}
	m, err := Run(generate(t, cfg, lowVarProfile(), 11), Options{
		Duration: 1000, Seed: 12,
		Failures: &FailureOptions{RecoveryDelay: 200, Schedule: sched},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.FailuresInjected != 3 {
		t.Errorf("FailuresInjected = %d, want the 3 applicable events", m.FailuresInjected)
	}
	if m.ClientQueriesLost == 0 {
		t.Error("scheduled single-partner outages lost no client queries")
	}
}

func TestScheduledFailuresDeterministic(t *testing.T) {
	// The same generated schedule replayed twice yields identical runs —
	// the property that lets the live harness compare against the sim.
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 200,
		ClusterSize: 10, AvgOutdegree: 3.1, TTL: 4, KRedundancy: 2}
	sched := ExponentialSchedule(21, 20, 2, 400, 800)
	if len(sched) == 0 {
		t.Fatal("empty generated schedule")
	}
	run := func() *Measured {
		m, err := Run(generate(t, cfg, nil, 13), Options{
			Duration: 800, Seed: 14,
			Failures: &FailureOptions{RecoveryDelay: 60, Schedule: sched},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.FailuresInjected == 0 {
		t.Fatal("no failures replayed")
	}
	if a.FailuresInjected != b.FailuresInjected || a.ClientQueriesLost != b.ClientQueriesLost ||
		a.Aggregate != b.Aggregate {
		t.Error("schedule replay is not deterministic")
	}
}

func TestFailuresDisabledByDefault(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 200
	m, err := Run(generate(t, cfg, nil, 9), Options{Duration: 200, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.FailuresInjected != 0 || m.ClientQueriesLost != 0 {
		t.Errorf("failures occurred without FailureOptions: %d/%d",
			m.FailuresInjected, m.ClientQueriesLost)
	}
}

// plantedRing is a ring of n clusters with k partners and the given clients,
// every user querying at rate.
func plantedRing(t *testing.T, n, k, clients int, rate float64) *network.Instance {
	t.Helper()
	inst, err := network.NewPlanted(network.Planted{
		Graph: topology.Ring(n), Partners: k, Clients: clients, Topics: 1,
		QueryRate: rate, QueryLen: 8, TTL: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// within3Sigma reports whether a Poisson count lies within three standard
// deviations of its mean.
func within3Sigma(count int, mean float64) bool {
	return math.Abs(float64(count)-mean) <= 3*math.Sqrt(mean)
}

func TestFailureSlotsAreFixed(t *testing.T) {
	// Each event names a fixed slot, whether or not an earlier one is down,
	// and each slot comes back 30 s after its own failure: two kills 10 s
	// apart darken the cluster for [20, 40), in either order.
	const clients, rate = 3, 2.0
	for _, tc := range []struct {
		name     string
		sched    Schedule
		failures int
		dark     float64
	}{
		{"slot0 then slot1", Schedule{{At: 10, Partner: 0}, {At: 20, Partner: 1}}, 2, 20},
		{"slot1 then slot0", Schedule{{At: 10, Partner: 1}, {At: 20, Partner: 0}}, 2, 20},
		{"slot0 twice", Schedule{{At: 10, Partner: 0}, {At: 20, Partner: 0}}, 1, 0},
	} {
		m, err := Run(plantedRing(t, 3, 2, clients, rate), Options{
			Duration: 100, Seed: 1,
			Failures: &FailureOptions{RecoveryDelay: 30, Schedule: tc.sched},
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.FailuresInjected != tc.failures {
			t.Errorf("%s: FailuresInjected = %d, want %d", tc.name, m.FailuresInjected, tc.failures)
		}
		want := tc.dark * clients * rate
		if lost := m.ClientQueriesLost; !within3Sigma(lost, want) {
			t.Errorf("%s: %d client queries lost, want %.0f ± %.0f from %g s dark",
				tc.name, lost, want, 3*math.Sqrt(want), tc.dark)
		}
	}
}

// darkTime replays sched on plain intervals: an event takes its slot down for
// [At, At+r) unless the slot is already down, when it is dropped. It returns
// the total time, within [0, duration), that all k slots of a cluster are
// down, summed over clusters.
func darkTime(sched Schedule, k int, r, duration float64) float64 {
	type edge struct {
		at    float64
		delta int
	}
	up := map[[2]int]float64{}
	edges := map[int][]edge{}
	for _, ev := range sched.Truncate(duration) {
		slot := [2]int{ev.Cluster, ev.Partner}
		if ev.At < up[slot] {
			continue
		}
		up[slot] = ev.At + r
		edges[ev.Cluster] = append(edges[ev.Cluster], edge{ev.At, 1}, edge{min(ev.At+r, duration), -1})
	}
	total := 0.0
	for _, es := range edges {
		slices.SortFunc(es, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
		down := 0
		for i, e := range es {
			if down == k {
				total += e.at - es[i-1].at
			}
			down += e.delta
		}
	}
	return total
}

func TestFailuresPriceTheirSchedule(t *testing.T) {
	// Differential: the simulator loses a client query exactly when its
	// cluster is dark, so ClientQueriesLost is a Poisson count whose mean is
	// the schedule's dark time × clients × query rate, at every k.
	const (
		clusters, clients = 6, 4
		rate, mtbf, r     = 0.5, 60.0, 40.0
		duration          = 2000.0
	)
	for k := 1; k <= 3; k++ {
		sched := ExponentialSchedule(uint64(30+k), clusters, k, mtbf, duration)
		m, err := Run(plantedRing(t, clusters, k, clients, rate), Options{
			Duration: duration, Seed: uint64(40 + k),
			Failures: &FailureOptions{RecoveryDelay: r, Schedule: sched},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := darkTime(sched, k, r, duration) * clients * rate
		if !within3Sigma(m.ClientQueriesLost, want) {
			t.Errorf("k = %d: %d client queries lost, schedule implies %.0f ± %.0f",
				k, m.ClientQueriesLost, want, 3*math.Sqrt(want))
		}
	}
}
