package design

import "spnet/internal/analysis"

// LocalState is what one super-peer can observe about itself without any
// global view: its measured load, the limit it is willing to bear, the shape
// of its cluster and neighborhood, and how far away its query responses have
// been coming from.
type LocalState struct {
	// Load is the super-peer's current measured load (e.g. an EWMA).
	Load analysis.Load
	// Limit is the load the super-peer is willing to handle. The paper's
	// "limited altruism" assumption: a super-peer accepts any load below
	// its predefined limit and never exceeds it voluntarily.
	Limit analysis.Load
	// Partners is the number of partners sharing the virtual super-peer:
	// rule I promotes a partner while it is at most 1, then splits.
	Partners int
	// Clients is the current cluster size excluding the super-peer.
	Clients int
	// Outdegree is the number of neighbor super-peers.
	Outdegree int
	// TTL is the TTL this super-peer stamps on forwarded queries.
	TTL int
	// MaxRespHops is the farthest hop distance from which query responses
	// have recently been observed (0 when unknown). Rule III: if responses
	// never come from beyond x hops, TTL can drop to x without losing reach.
	MaxRespHops int
	// ClusterGrowing reports whether the cluster has been gaining clients
	// recently; rule II defers neighbor additions while it is.
	ClusterGrowing bool
	// GainedResultsAfterNeighbor reports whether the last neighbor added
	// increased the number of responses (Appendix E's probe for "too many
	// neighbors"). Only meaningful when ProbedNeighbor is true.
	GainedResultsAfterNeighbor bool
	// ProbedNeighbor indicates a recent neighbor addition is awaiting the
	// Appendix E usefulness check.
	ProbedNeighbor bool
}

// Action is rule I's response to a cluster's load.
type Action int

const (
	Hold     Action = iota // the load calls for no change
	Promote                // overload: a capable client becomes a redundant partner
	Split                  // overload, already redundant: a client founds a new cluster with half the clients
	Coalesce               // far below the limit: merge with another small cluster
	Resign                 // overload with no clients to shed and few neighbors: become a client
)

// Advice is the set of local actions the Section 5.3 guidelines recommend.
type Advice struct {
	// AcceptClients: rule I — a super-peer should always accept new
	// clients, unless it is about to shed load.
	AcceptClients bool
	// Action is rule I's structural response.
	Action Action
	// AddNeighbor: rule II — increase outdegree while resources allow and
	// the cluster is not growing.
	AddNeighbor bool
	// DropProbedNeighbor: Appendix E — the most recently added neighbor did
	// not increase responses, so the connection should be dropped.
	DropProbedNeighbor bool
	// NewTTL is the TTL to use from now on (rule III); equal to the current
	// TTL when no decrease is warranted.
	NewTTL int
}

// Thresholds is empty: the rules use the paper's defaults below.
type Thresholds struct{}

// The rules' thresholds: load fractions of the limit (per Utilization) and
// an outdegree.
const (
	overloadAt         = 1.0  // shed load at the hard limit
	spareBelow         = 0.7  // room for rule II's extra neighbors
	coalesceBelow      = 0.15 // propose a merge
	minViableOutdegree = 2    // an overloaded super-peer with no clients and fewer neighbors resigns
)

// Utilization returns the maximum load fraction across the three resources,
// the scalar the local rules compare against their thresholds.
func Utilization(load, limit analysis.Load) float64 {
	u := 0.0
	if limit.InBps > 0 {
		u = max(u, load.InBps/limit.InBps)
	}
	if limit.OutBps > 0 {
		u = max(u, load.OutBps/limit.OutBps)
	}
	if limit.ProcHz > 0 {
		u = max(u, load.ProcHz/limit.ProcHz)
	}
	return u
}

// Advise applies the Section 5.3 guidelines to one super-peer's local state.
// It keeps no history; Local.Step adds it.
func Advise(s LocalState, _ Thresholds) Advice {
	u := Utilization(s.Load, s.Limit)
	adv := Advice{NewTTL: s.TTL}

	// Rule I: always accept new clients — given the client must be served by
	// some super-peer, refusing it helps nobody. Only an overloaded
	// super-peer stops accepting, and it also sheds load: prefer promoting a
	// partner (rule #2: redundancy improves both reliability and individual
	// load); splitting is the response once the cluster is redundant.
	switch {
	case u >= overloadAt:
		switch {
		case s.Clients >= 2 && s.Partners > 1:
			adv.Action = Split
		case s.Clients >= 2:
			adv.Action = Promote
		case s.Outdegree < minViableOutdegree:
			adv.Action = Resign
		}
	case u <= coalesceBelow && s.Clients > 0:
		adv.AcceptClients = true
		adv.Action = Coalesce
	default:
		adv.AcceptClients = true
	}

	// Appendix E: if a probed neighbor addition brought no new responses,
	// the connection is pure redundant-query overhead — drop it.
	if s.ProbedNeighbor && !s.GainedResultsAfterNeighbor {
		adv.DropProbedNeighbor = true
	}

	// Rule II: grow outdegree while the cluster is stable and resources are
	// spare; everyone doing so shortens the EPL for the whole network.
	if !s.ClusterGrowing && u < spareBelow && !adv.DropProbedNeighbor {
		adv.AddNeighbor = true
	}

	// Rule III: decrease TTL when responses never arrive from the horizon.
	if s.MaxRespHops > 0 && s.MaxRespHops < s.TTL {
		adv.NewTTL = s.MaxRespHops
	}
	return adv
}

// The history Local keeps around Advise.
const (
	// sustainSteps is how many consecutive steps an overload or underload
	// signal must hold before rule I acts (hysteresis against one-window
	// blips); cooldownSteps is how many steps rule I then holds, so the
	// action's effect is observed before the next one.
	sustainSteps  = 2
	cooldownSteps = 3
	// horizonSample is how many of the cluster's own queries rule III
	// samples before it trusts the farthest response hop ("if a super-peer
	// rarely or never receives responses from beyond x hops away").
	horizonSample = 30
	// probeSample is how many own queries Appendix E's probe samples before
	// it compares result rates; a rate above probeGain times the one before
	// the probe keeps the neighbor.
	probeSample = 20
	probeGain   = 1.02
)

// Obs is what a layer measured about one super-peer: its load over the
// window since the last step, the cluster's shape now, and the window's own
// queries (how many it sourced, the results they drew, and the farthest hop
// a response came from).
type Obs struct {
	Load, Limit                       analysis.Load
	Partners, Clients, Outdegree, TTL int
	Queries, Results, MaxRespHops     int
}

// window counts a cluster's own queries across steps.
type window struct{ queries, results, hops int }

// Local is one super-peer's Section 5.3 decision state, the history the
// rules need beyond one observation: each layer measures, Local decides, and
// the layer acts. The zero value is ready to use.
type Local struct {
	run      int     // rule I: consecutive steps of one signal, + overload, - underload
	cooldown int     // rule I: steps left to hold after an action
	clients  int     // rule II: the cluster size last reported, the growth baseline
	horizon  window  // rule III: own queries and farthest hop since the TTL was checked
	probe    *window // Appendix E: own queries and results since the layer added a neighbor
	before   float64 // results per query in the window before the probe (the last window, until one starts)
}

// Step decides from a fresh observation. Rule I's action must hold for
// sustainSteps consecutive steps and starts a cooldown of cooldownSteps;
// AcceptClients follows the load without hysteresis. Rule III lowers NewTTL
// by at most one hop a step, once horizonSample own queries are in. The
// layer acts on the Advice, then reports back with Settle.
func (l *Local) Step(o Obs) Advice {
	l.horizon.queries += o.Queries
	l.horizon.hops = max(l.horizon.hops, o.MaxRespHops)
	judged := false
	if p := l.probe; p != nil {
		p.queries += o.Queries
		p.results += o.Results
		judged = p.queries >= probeSample
	}
	s := LocalState{
		Load: o.Load, Limit: o.Limit,
		Partners: o.Partners, Clients: o.Clients, Outdegree: o.Outdegree, TTL: o.TTL,
		ClusterGrowing: o.Clients > l.clients,
		ProbedNeighbor: judged,
		GainedResultsAfterNeighbor: judged &&
			float64(l.probe.results)/float64(l.probe.queries) > l.before*probeGain,
	}
	if l.horizon.queries >= horizonSample {
		s.MaxRespHops = l.horizon.hops
	}
	adv := Advise(s, Thresholds{})
	adv.Action = l.sustain(adv.Action)

	if judged || l.probe == nil {
		l.probe, l.before = nil, 0
		if o.Queries > 0 {
			l.before = float64(o.Results) / float64(o.Queries)
		}
	}
	adv.AddNeighbor = adv.AddNeighbor && l.probe == nil
	if adv.NewTTL < o.TTL {
		adv.NewTTL = o.TTL - 1
	}
	if adv.NewTTL < o.TTL || l.horizon.queries >= horizonSample {
		l.horizon = window{}
	}
	l.clients = o.Clients
	return adv
}

// Miss records a step with no fresh observation: it breaks a sustained
// signal and leaves a cooldown as it was.
func (l *Local) Miss() { l.run = 0 }

// Settle records the cluster as the layer left it after acting on a Step:
// its size, the next step's growth baseline, and whether it added the
// neighbor AddNeighbor asked for, which starts Appendix E's probe of it. A
// layer that does not call it is taken to have left the size as observed.
func (l *Local) Settle(clients int, added bool) {
	l.clients = clients
	if added {
		l.probe = &window{}
	}
}

// sustain applies rule I's hysteresis to the action Advise proposed.
func (l *Local) sustain(a Action) Action {
	if l.cooldown > 0 {
		l.cooldown--
		return Hold
	}
	signal := 0
	switch a {
	case Promote, Split, Resign:
		signal = 1
	case Coalesce:
		signal = -1
	}
	if l.run*signal <= 0 { // no signal, or the other one: a new run
		l.run = 0
	}
	l.run += signal
	if l.run*signal < sustainSteps {
		return Hold
	}
	l.run, l.cooldown = 0, cooldownSteps
	return a
}
