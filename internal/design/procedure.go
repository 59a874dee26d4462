package design

import (
	"errors"
	"fmt"
	"math"

	"spnet/internal/analysis"
	"spnet/internal/network"
	"spnet/internal/parallel"
	"spnet/internal/stats"
	"spnet/internal/topology"
	"spnet/internal/workload"
)

// Constraints are the per-super-peer (and optional aggregate) limits a
// designer specifies for the global design procedure. The paper's Section
// 5.2 example: 100 Kbps each way, 10 MHz processing, 100 open connections.
type Constraints struct {
	// MaxDownBps limits a super-peer's expected incoming bandwidth.
	MaxDownBps float64
	// MaxUpBps limits a super-peer's expected outgoing bandwidth.
	MaxUpBps float64
	// MaxProcHz limits a super-peer's expected processing load.
	MaxProcHz float64
	// MaxConns limits a super-peer's open connections (clients + neighbors).
	MaxConns int
	// AllowRedundancy lets the procedure fall back to 2-redundant
	// super-peers when individual load cannot otherwise be attained.
	AllowRedundancy bool
}

// Validate reports whether the constraints are usable.
func (c Constraints) Validate() error {
	if c.MaxDownBps <= 0 || c.MaxUpBps <= 0 || c.MaxProcHz <= 0 {
		return fmt.Errorf("design: load limits must be positive: %+v", c)
	}
	if c.MaxConns < 2 {
		return fmt.Errorf("design: MaxConns = %d, want >= 2", c.MaxConns)
	}
	return nil
}

// Goals are the desired properties of the network.
type Goals struct {
	// NetworkSize is the number of peers the network must host.
	NetworkSize int
	// DesiredReach is the number of peers each query should cover. The
	// paper notes reach is chosen according to the desired number of
	// results, as the two are proportional.
	DesiredReach int
}

// Validate reports whether the goals are usable.
func (g Goals) Validate() error {
	if g.NetworkSize <= 1 {
		return fmt.Errorf("design: NetworkSize = %d, want > 1", g.NetworkSize)
	}
	if g.DesiredReach <= 0 || g.DesiredReach > g.NetworkSize {
		return fmt.Errorf("design: DesiredReach = %d, want [1, NetworkSize=%d]", g.DesiredReach, g.NetworkSize)
	}
	return nil
}

// Options tune the procedure's search.
type Options struct {
	// Profile is the workload profile (nil = default).
	Profile *workload.Profile
	// Trials per candidate evaluation (0 = 2).
	Trials int
	// Seed for the candidate evaluations.
	Seed uint64
	// Workers bounds the candidate-evaluation worker pool (0 = GOMAXPROCS,
	// 1 = serial). The selected plan is identical at any setting: candidates
	// evaluate speculatively in worker-sized batches and the batch results
	// are scanned in the serial search order.
	Workers int
}

// Plan is the procedure's output: the chosen configuration, its predicted
// performance, and a human-readable trace of the decisions taken.
type Plan struct {
	Config    network.Config
	Predicted *analysis.TrialSummary
	// ReachShortfall is the fraction by which the desired reach had to be
	// reduced (0 when the full goal is met) — the procedure's "decrease r"
	// escape hatch.
	ReachShortfall float64
	Steps          []string
}

// ErrInfeasible is returned when no configuration satisfies the constraints
// even after reducing reach.
var ErrInfeasible = errors.New("design: no feasible configuration")

// Run executes the global design procedure of Figure 10:
//
//	(1) select the desired reach r; (2) set TTL=1;
//	(3) decrease cluster size until the individual load is attained,
//	    applying redundancy and/or decreasing r when it cannot be;
//	(4) if the required outdegree exceeds the connection budget,
//	    increment the TTL and return to (3);
//	(5) do not raise outdegree beyond what the reach requires (the
//	    Appendix E caveat: past the EPL plateau more neighbors only add
//	    redundant queries).
func Run(goals Goals, cons Constraints, opts Options) (*Plan, error) {
	if err := goals.Validate(); err != nil {
		return nil, err
	}
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = 2
	}

	plan := &Plan{}
	logf := func(format string, args ...any) {
		plan.Steps = append(plan.Steps, fmt.Sprintf(format, args...))
	}

	reach := goals.DesiredReach
	logf("step 1: desired reach %d peers in a network of %d", reach, goals.NetworkSize)

	for attempt := 0; attempt < 6; attempt++ {
		cfg, pred, err := searchTTLAndCluster(goals.NetworkSize, reach, cons, opts, trials, logf)
		if err == nil {
			plan.Config = cfg
			plan.Predicted = pred
			plan.ReachShortfall = 1 - float64(reach)/float64(goals.DesiredReach)
			if plan.ReachShortfall > 0 {
				logf("goal relaxed: reach reduced from %d to %d peers", goals.DesiredReach, reach)
			}
			return plan, nil
		}
		if !errors.Is(err, ErrInfeasible) {
			return nil, err
		}
		// Step 3's escape hatch: decrease r.
		reach = reach * 3 / 4
		if reach < 2 {
			break
		}
		logf("no feasible configuration; decreasing desired reach to %d peers", reach)
	}
	return nil, fmt.Errorf("%w for goals %+v under %+v", ErrInfeasible, goals, cons)
}

// maxTTL bounds step 4's TTL escalation: 7, the Gnutella default.
const maxTTL = 7

// searchTTLAndCluster runs steps 2–5 for a fixed reach goal.
func searchTTLAndCluster(size, reach int, cons Constraints, opts Options, trials int,
	logf func(string, ...any)) (network.Config, *analysis.TrialSummary, error) {

	// Candidates that exceed the individual load limit stay infeasible at
	// higher TTLs (no configuration is more bandwidth-efficient than TTL 1),
	// so remember them across the TTL escalation.
	failed := make(map[candidateKey]bool)
	for ttl := 1; ttl <= maxTTL; ttl++ {
		logf("step 2/4: trying TTL %d", ttl)
		cfg, pred, err := searchClusterSize(size, reach, ttl, cons, opts, trials, failed, logf)
		if err == nil {
			return cfg, pred, nil
		}
		if !errors.Is(err, errConnBudget) {
			return network.Config{}, nil, err
		}
		// Step 4: outdegree too high for the connection budget — raise TTL.
	}
	return network.Config{}, nil, ErrInfeasible
}

// errConnBudget signals that the best cluster size found needs more open
// connections than allowed, so the TTL must rise.
var errConnBudget = errors.New("design: connection budget exceeded")

// searchClusterSize is step 3: walk cluster sizes from large to small until
// the individual load constraint is met, preferring the largest feasible
// cluster (rule #1 minimizes aggregate load with large clusters).
//
// Candidates evaluate speculatively in worker-sized batches: every candidate
// evaluation depends only on (candidate, opts.Seed), never on its
// predecessors, so a batch can run concurrently and its results be scanned in
// the serial search order. The first success in scan order wins and the
// failure memo is updated only for candidates scanned before it — exactly the
// candidates the serial walk would have tried — so the outcome (and the memo
// carried to higher TTLs) is identical at any worker count.
func searchClusterSize(size, reach, ttl int, cons Constraints, opts Options, trials int,
	failed map[candidateKey]bool, logf func(string, ...any)) (network.Config, *analysis.TrialSummary, error) {

	var cands []candidateKey
	for _, cs := range clusterSizeCandidates(size) {
		for _, redundant := range redundancyOrder(cons.AllowRedundancy) {
			if redundant && cs < 2 {
				continue
			}
			if failed[candidateKey{cs, redundant}] {
				continue
			}
			cands = append(cands, candidateKey{cs, redundant})
		}
	}

	type outcome struct {
		cfg  network.Config
		pred *analysis.TrialSummary
		err  error
	}
	sawConnBudgetFailure := false
	batch := parallel.Workers(opts.Workers)
	for start := 0; start < len(cands); start += batch {
		end := min(start+batch, len(cands))
		chunk := cands[start:end]
		outs, _ := parallel.Map(opts.Workers, len(chunk), func(i int) (outcome, error) {
			cfg, pred, err := tryCandidate(size, reach, ttl, chunk[i].cs, chunk[i].redundant, cons, opts, trials)
			return outcome{cfg, pred, err}, nil
		})
		for i, out := range outs {
			c := chunk[i]
			switch {
			case out.err == nil:
				logf("step 3: cluster size %d (redundant=%v) outdegree %.0f meets limits: sp in %.3g bps, out %.3g bps, proc %.3g Hz",
					c.cs, c.redundant, out.cfg.AvgOutdegree, out.pred.SuperPeer.InBps.Mean,
					out.pred.SuperPeer.OutBps.Mean, out.pred.SuperPeer.ProcHz.Mean)
				return out.cfg, out.pred, nil
			case errors.Is(out.err, errConnBudget):
				sawConnBudgetFailure = true
			case errors.Is(out.err, errLoadLimit):
				failed[c] = true
			case errors.Is(out.err, errReachImpossible):
				// keep searching smaller clusters / redundancy
			default:
				return network.Config{}, nil, out.err
			}
		}
	}
	if sawConnBudgetFailure {
		return network.Config{}, nil, errConnBudget
	}
	return network.Config{}, nil, ErrInfeasible
}

var (
	errLoadLimit       = errors.New("design: individual load limit exceeded")
	errReachImpossible = errors.New("design: reach not attainable")
)

// candidateKey identifies a (cluster size, redundancy) candidate in the
// cross-TTL failure memo.
type candidateKey struct {
	cs        int
	redundant bool
}

// tryCandidate evaluates one (clusterSize, redundancy) candidate at the
// given TTL: picks the minimal outdegree that attains the reach (step 5's
// caveat — never more than needed), verifies the connection budget, runs the
// analysis, and checks the measured loads and reach.
func tryCandidate(size, reach, ttl, cs int, redundant bool, cons Constraints, opts Options,
	trials int) (network.Config, *analysis.TrialSummary, error) {

	clusters := size / cs
	if clusters < 1 {
		clusters = 1
	}
	reachClusters := int(math.Ceil(float64(reach) / float64(cs)))
	if reachClusters > clusters {
		reachClusters = clusters
	}
	maxDeg := clusters - 1
	if maxDeg < 1 {
		maxDeg = 1
	}
	d := MinOutdegreeForReach(reachClusters, ttl, maxDeg)
	if d > maxDeg {
		return network.Config{}, nil, errReachImpossible
	}

	partners := 1
	if redundant {
		partners = 2
	}
	// Client connections alone blowing the budget cannot be fixed by a
	// higher TTL — treat it as a permanent failure of this cluster size. The
	// floor is the connection count at outdegree 1: cs-partners clients plus
	// one overlay link to each partner of the one neighbor, which is cs, and
	// the co-partner link when redundant.
	baseConns := cs
	if redundant {
		baseConns++
	}
	if baseConns > cons.MaxConns {
		return network.Config{}, nil, errLoadLimit
	}
	for attempts := 0; d <= maxDeg && attempts < 12; attempts++ {
		clients := cs - partners
		conns := clients + d*partners
		if redundant {
			conns++ // co-partner link
		}
		if conns > cons.MaxConns {
			return network.Config{}, nil, errConnBudget
		}

		cfg := network.Config{
			GraphType:    network.PowerLaw,
			GraphSize:    size,
			ClusterSize:  cs,
			KRedundancy:  partners,
			AvgOutdegree: float64(d),
			TTL:          ttl,
		}
		if clusters == 1 {
			cfg.GraphType = network.Strong
		}
		// The tree bound is optimistic on graphs with cycles: probe the
		// reach on bare topologies first — far cheaper than a full load
		// evaluation — and escalate the outdegree geometrically when short.
		if clusters > 1 {
			ok, err := probeReach(cfg, reachClusters, opts.Seed)
			if err != nil {
				return network.Config{}, nil, err
			}
			if !ok {
				d = d*5/4 + 1
				continue
			}
		}
		pred, err := analysis.RunTrialsWorkers(cfg, opts.Profile, trials, opts.Seed, opts.Workers)
		if err != nil {
			return network.Config{}, nil, err
		}
		if pred.ReachPeers.Mean < float64(reach)*0.95 {
			d = d*5/4 + 1
			continue
		}
		sp := pred.SuperPeer
		if sp.InBps.Mean > cons.MaxDownBps || sp.OutBps.Mean > cons.MaxUpBps ||
			sp.ProcHz.Mean > cons.MaxProcHz {
			return network.Config{}, nil, errLoadLimit
		}
		return cfg, pred, nil
	}
	return network.Config{}, nil, errReachImpossible
}

// probeReach checks on a bare generated topology whether queries reach the
// desired number of clusters at the candidate's TTL, sampling a handful of
// sources.
func probeReach(cfg network.Config, reachClusters int, seed uint64) (bool, error) {
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	g, err := topology.PowerLaw(topology.PLODParams{
		N:      cfg.NumClusters(),
		AvgDeg: cfg.AvgOutdegree,
	}, rng)
	if err != nil {
		return false, err
	}
	const probes = 5
	var total float64
	for i := 0; i < probes; i++ {
		total += float64(topology.ReachForTTL(g, rng.Intn(g.N()), cfg.TTL))
	}
	return total/probes >= float64(reachClusters)*0.95, nil
}

// redundancyOrder returns the redundancy settings to try, plain first.
func redundancyOrder(allow bool) []bool {
	if allow {
		return []bool{false, true}
	}
	return []bool{false}
}

// clusterSizeCandidates returns a descending geometric ladder of cluster
// sizes to search, always ending at 1.
func clusterSizeCandidates(size int) []int {
	var out []int
	seen := map[int]bool{}
	for _, cs := range []int{10000, 5000, 2000, 1000, 500, 200, 100, 50, 20, 10, 5, 2, 1} {
		if cs > size {
			continue
		}
		if !seen[cs] {
			out = append(out, cs)
			seen[cs] = true
		}
	}
	return out
}
