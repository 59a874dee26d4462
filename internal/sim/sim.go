package sim

import (
	"fmt"
	"slices"

	"spnet/internal/analysis"
	"spnet/internal/cost"
	"spnet/internal/index"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/routing"
	"spnet/internal/stats"
	"spnet/internal/trust"
	"spnet/internal/workload"
)

// Options configure a simulation run.
type Options struct {
	// Duration is the virtual time to simulate, in seconds.
	Duration float64
	// Latency is the per-hop message delivery delay in seconds (default 20ms).
	// It orders events; load is latency-independent.
	Latency float64
	// Seed drives all randomness in the run.
	Seed uint64
	// Churn enables client-slot churn and super-peer re-index events. When
	// a client's session ends, a statistically identical replacement joins,
	// keeping the population stable ("when a node leaves the network,
	// another node is joining elsewhere") while exercising the join path.
	Churn bool
	// Adaptive, when non-nil, runs the Section 5.3 local decision rules on
	// every super-peer.
	Adaptive *AdaptiveOptions
	// Failures, when non-nil, injects super-peer failures and recoveries,
	// measuring the reliability benefit of redundancy (Section 3.2).
	Failures *FailureOptions
	// Content, when non-nil, evaluates queries over real inverted indexes
	// instead of the Appendix B match-sampling model.
	Content *ContentOptions
	// Routing selects the query-forwarding strategy (nil = flood, the
	// paper's protocol). Strategy randomness draws from a generator
	// independent of the simulation stream, so selecting flood reproduces
	// the pre-strategy event sequence bit-identically.
	Routing routing.Strategy
	// Adversary, when non-nil, plants misbehaving super-peer partners
	// (query-drop freeloaders, QueryHit forgers, Busy-liars) and optionally
	// the reputation-weighted response to them. Adversary randomness draws
	// from its own salted stream, so nil (and the zero value) leaves runs
	// bit-identical to honest golden values.
	Adversary *AdversaryOptions
}

// Measured is a simulation run's output: observed (not expected) loads under
// the same cost model the analysis engine uses. In adaptive mode the loads
// cover the clusters alive at the end of the run.
type Measured struct {
	// Duration is the simulated virtual time.
	Duration float64
	// SuperPeer is the mean measured load of each live cluster's partner(s).
	SuperPeer []analysis.Load
	// SuperPeerClassBps breaks each live cluster's per-partner bandwidth
	// (bits/s) down by Table 2 taxonomy class and direction, under the same
	// classes live nodes meter.
	SuperPeerClassBps []metrics.ByClass
	// MeanSuperPeer averages SuperPeer.
	MeanSuperPeer analysis.Load
	// MeanClient is the mean measured client load.
	MeanClient analysis.Load
	// Aggregate sums all live node loads.
	Aggregate analysis.Load
	// ResultsPerQuery is the observed mean number of results per query.
	ResultsPerQuery float64
	// EPL is the observed mean hop count of Response messages.
	EPL float64
	// QueriesIssued counts queries submitted by users.
	QueriesIssued int
	// QueriesForwarded counts query copies sent over super-peer overlay
	// links — the quantity routing strategies reduce relative to flood.
	QueriesForwarded int
	// Strategy is the routing strategy the run used ("flood", ...).
	Strategy string
	// EventsExecuted counts simulator events.
	EventsExecuted int
	// FinalClusters reports the number of live clusters at the end of the
	// run (changes only in adaptive mode).
	FinalClusters int
	// FinalMeanOutdegree is the mean overlay outdegree at the end of the run.
	FinalMeanOutdegree float64
	// FinalMeanTTL is the mean TTL super-peers stamp on queries at the end
	// of the run (rule III decays it).
	FinalMeanTTL float64
	// FinalPeers counts live peers at the end of the run.
	FinalPeers int
	// FailuresInjected counts super-peer partner failures (failure
	// injection only).
	FailuresInjected int
	// ClientQueriesLost counts queries clients could not submit because
	// every partner of their cluster was down (failure injection only).
	ClientQueriesLost int

	// Adversary-mode outcome metrics (Options.Adversary only; zero
	// otherwise). Genuine counts exclude fabricated results, so these
	// measure real recall even when forged hits are accepted.

	// QueriesRefused counts client queries a malicious partner Busy-lied
	// away.
	QueriesRefused int
	// QueriesDroppedMalicious counts client queries a malicious access
	// partner accepted and silently discarded.
	QueriesDroppedMalicious int
	// RelayDropsMalicious counts query copies malicious relays discarded.
	RelayDropsMalicious int
	// ForgedResponses counts fabricated QueryHits malicious relays sent.
	ForgedResponses int
	// ForgedAccepted counts forged results consumed at query sources
	// (trust off; with trust on they are audited and dropped en route).
	ForgedAccepted int
	// ForgedDetected counts forged responses dropped by the audit.
	ForgedDetected int
	// ClientQueriesTracked is the number of client-submitted queries with
	// outcome records; ClientQueriesUnanswered of them produced zero
	// genuine results (the lost fraction's numerator).
	ClientQueriesTracked    int
	ClientQueriesUnanswered int
	// GenuineResultsPerQuery is the mean genuine result count per client
	// query; SpreadP50/P90/P99 are percentiles of the same per-query
	// distribution (the iris spread metric).
	GenuineResultsPerQuery float64
	SpreadP50              float64
	SpreadP90              float64
	SpreadP99              float64
}

// counters accumulate one node's observed work. Packet-multiplex overhead is
// charged inline at each message with the node's connection count at that
// moment. Byte charges go through addIn/addOut so every byte is also
// attributed to its Table 2 taxonomy class, mirroring the live LoadMeter.
type counters struct {
	bytesIn  float64
	bytesOut float64
	procU    float64
	cls      metrics.ByClass
}

func (c *counters) addIn(class metrics.Class, b float64) {
	c.bytesIn += b
	c.cls.Add(class, metrics.DirIn, b)
}

func (c *counters) addOut(class metrics.Class, b float64) {
	c.bytesOut += b
	c.cls.Add(class, metrics.DirOut, b)
}

func (c *counters) load(duration float64) analysis.Load {
	return analysis.Load{
		InBps:  c.bytesIn * 8 / duration,
		OutBps: c.bytesOut * 8 / duration,
		ProcHz: cost.UnitsToHz(c.procU) / duration,
	}
}

// clientNode is one client slot. Under churn the slot is re-occupied by a
// statistically identical peer when its session ends. A retired slot has
// cluster == nil and all its processes stop.
type clientNode struct {
	cluster  *clusterNode
	files    int
	lifespan float64
	rr       int // round-robin partner selector
	owner    int // cluster-local owner id (content mode)
	counters counters
	// trustBook scores the cluster's partner slots by observed reliability
	// (adversary trust mode only; keyed by partner slot index).
	trustBook *trust.Book
	// noMatch is the memoised P(no match) per query class for this
	// collection's size (Simulator.noMatchRow), set on first evaluation.
	noMatch []float64
}

func (c *clientNode) alive() bool { return c.cluster != nil }

// partnerNode is one super-peer partner (a full node; a non-redundant
// cluster has exactly one).
type partnerNode struct {
	cluster  *clusterNode
	files    int
	lifespan float64
	owner    int // cluster-local owner id (content mode)
	counters counters
	// advID is the partner's global id in the adversary subsystem's
	// namespace (overlay reputation books key on it); malicious marks the
	// partner as planted by AdversaryOptions.
	advID     int
	malicious bool
	noMatch   []float64 // as clientNode.noMatch
}

func (p *partnerNode) alive() bool {
	if len(p.cluster.partners) == 0 {
		return false
	}
	for _, q := range p.cluster.partners {
		if q == p {
			return true
		}
	}
	return false
}

// clusterNode is a (virtual) super-peer and its clients; a node of the
// overlay.
type clusterNode struct {
	id       int
	partners []*partnerNode
	clients  []*clientNode
	// seen is the virtual super-peer's duplicate-detection and
	// reverse-routing table.
	seen seenTable
	// neighbors is the overlay adjacency in strictly ascending cluster-id
	// order (addEdge/removeEdge maintain it), so ranging over it is the
	// deterministic iteration order.
	neighbors []*clusterNode
	// nbPartners is the number of partners across all neighbors, kept by
	// insertNeighbor/deleteNeighbor and setPartners.
	nbPartners       int
	ttl              int  // TTL stamped on queries sourced in this cluster
	rrOut            int  // round-robin selector for neighbor partners
	acceptingClients bool // rule I state, toggled by the adaptive advisor
	// slots is the fixed partner slot table failure events address: slot i
	// is up while slots[i] is in partners and the cluster is not down.
	slots []*partnerNode
	// down is true while every slot is down (FailureOptions): clients are
	// disconnected and overlay traffic to the cluster is lost.
	down     bool
	adaptive *adaptiveState
	// index is the cluster's shared inverted index (content mode only);
	// partners hold identical replicas, modeled once.
	index     *index.Index
	nextOwner int
	// routing is the cluster's per-neighbor strategy state, created lazily.
	routing *routing.NodeState
	// summaryGen is the Simulator.indexGen the cluster's advertised
	// summaries were last rebuilt at (routing-index strategy only).
	summaryGen int
	// ownSummary caches index.Summary(); invalidated when this cluster's
	// own index mutates, so neighbor BFS merges reuse the snapshot.
	ownSummary *index.Summary
	// summaryNext is the earliest virtual time the cluster may rebuild its
	// advertised summaries again (periodic-advertisement rate limit).
	summaryNext float64
	// trustBook scores neighbor-cluster partners (by advID) from overlay
	// observations: genuine responses relayed through them score good,
	// audited forgeries score bad (adversary trust mode only).
	trustBook *trust.Book
}

func (c *clusterNode) dissolved() bool { return len(c.partners) == 0 }

// neighborIndex binary-searches the neighbor slice for cluster id. It returns
// the position the id holds, or would be inserted at, and whether it is there.
func (c *clusterNode) neighborIndex(id int) (int, bool) {
	return slices.BinarySearchFunc(c.neighbors, id,
		func(nb *clusterNode, id int) int { return nb.id - id })
}

func (c *clusterNode) hasNeighbor(id int) bool {
	_, ok := c.neighborIndex(id)
	return ok
}

// insertNeighbor and deleteNeighbor are the one-directional halves of
// addEdge and removeEdge.
func (c *clusterNode) insertNeighbor(nb *clusterNode) {
	if i, ok := c.neighborIndex(nb.id); !ok {
		c.neighbors = slices.Insert(c.neighbors, i, nb)
		c.nbPartners += len(nb.partners)
	}
}

func (c *clusterNode) deleteNeighbor(nb *clusterNode) {
	if i, ok := c.neighborIndex(nb.id); ok {
		c.neighbors = slices.Delete(c.neighbors, i, i+1)
		c.nbPartners -= len(nb.partners)
	}
}

// setPartners replaces the cluster's partner list. Every partner join and
// leave goes through here so each neighbor's nbPartners stays exact.
func (c *clusterNode) setPartners(ps []*partnerNode) {
	if d := len(ps) - len(c.partners); d != 0 {
		for _, nb := range c.neighbors {
			nb.nbPartners += d
		}
	}
	c.partners = ps
}

// partnerConns returns the number of open connections one partner holds:
// all clients, every partner of every neighbor, and the co-partner link.
func (c *clusterNode) partnerConns() int {
	conns := len(c.clients) + len(c.partners) - 1 + c.nbPartners
	if conns < 0 {
		conns = 0 // dissolved cluster handling a late in-flight message
	}
	return conns
}

// clientConns returns the connections one of the cluster's clients holds.
func (c *clusterNode) clientConns() int { return len(c.partners) }

// indexSize returns x_tot for the cluster's shared index.
func (c *clusterNode) indexSize() int {
	total := 0
	for _, p := range c.partners {
		total += p.files
	}
	for _, cl := range c.clients {
		total += cl.files
	}
	return total
}

// Simulator executes the super-peer protocol over a mutable copy of a
// generated instance.
type Simulator struct {
	sched    scheduler
	rng      *stats.RNG
	prof     *workload.Profile
	opts     Options
	clusters []*clusterNode

	qBytes    float64
	sendQProc float64
	recvQProc float64

	// Routing strategy state. routeRNG seeds per-cluster NodeStates from a
	// stream independent of s.rng so strategy randomness cannot perturb the
	// flood-deterministic simulation stream; indexGen invalidates cached
	// routing-index summaries when a content index mutates.
	route            routing.Strategy
	routeLearns      bool
	routeSummaries   bool
	routeRNG         *stats.RNG
	indexGen         int
	queriesForwarded int
	candBuf          []routing.Candidate
	candNodes        []*clusterNode
	selBuf           []int

	nextQueryID       uint64
	arrivalsScheduled bool

	// noMatch memoises QueryModel.NoMatchProb rows by collection size.
	noMatch map[int][]float64

	queries      int
	resultsTotal float64
	respMsgs     float64
	respHops     float64
	events       int

	failuresInjected  int
	clientQueriesLost int

	// adv is the adversary-mode bookkeeping (nil on honest runs).
	adv *advState
}

// New builds a simulator from a generated instance. The instance is copied
// into mutable structures and is not modified.
func New(inst *network.Instance, opts Options) (*Simulator, error) {
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("sim: Duration = %v, want > 0", opts.Duration)
	}
	if opts.Latency <= 0 {
		opts.Latency = 0.02
	}
	s := &Simulator{
		rng:  stats.NewRNG(opts.Seed),
		prof: inst.Profile,
		opts: opts,
	}
	s.initRouting()
	qb, sp := cost.SendQuery(inst.Profile.QueryLen)
	_, rp := cost.RecvQuery(inst.Profile.QueryLen)
	s.qBytes, s.sendQProc, s.recvQProc = float64(qb), float64(sp), float64(rp)

	// Build mutable clusters.
	retention := seenRetention(inst.Config.TTL, opts.Latency)
	s.clusters = make([]*clusterNode, len(inst.Clusters))
	for v := range inst.Clusters {
		src := &inst.Clusters[v]
		c := &clusterNode{
			id:               v,
			seen:             seenTable{span: retention},
			neighbors:        make([]*clusterNode, 0, inst.Graph.Degree(v)),
			ttl:              inst.Config.TTL,
			acceptingClients: true,
		}
		for _, p := range src.Partners {
			c.setPartners(append(c.partners, &partnerNode{
				cluster: c, files: p.Files, lifespan: p.Lifespan,
			}))
		}
		for _, cl := range src.Clients {
			c.clients = append(c.clients, &clientNode{
				cluster: c, files: cl.Files, lifespan: cl.Lifespan,
			})
		}
		c.slots = slices.Clone(c.partners)
		s.clusters[v] = c
	}
	var nbs []int32
	for v := range inst.Clusters {
		nbs = inst.Graph.Neighbors(v, nbs)
		for _, w := range nbs {
			s.clusters[v].insertNeighbor(s.clusters[w])
		}
	}
	if s.contentMode() {
		if err := s.initContent(); err != nil {
			return nil, err
		}
	}
	if opts.Adversary != nil {
		if err := s.initAdversary(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Run executes the simulation and returns the measured loads and metrics.
func Run(inst *network.Instance, opts Options) (*Measured, error) {
	s, err := New(inst, opts)
	if err != nil {
		return nil, err
	}
	s.start()
	s.events = s.runUntil(opts.Duration)
	return s.measure(), nil
}

// start schedules every peer's behavior processes.
func (s *Simulator) start() {
	for _, c := range s.clusters {
		for _, p := range c.partners {
			s.startPartnerProcesses(p, true)
		}
		for _, cl := range c.clients {
			s.startClientProcesses(cl, true)
		}
		s.scheduleSeenCleanup(c)
		if s.opts.Adaptive != nil {
			s.scheduleAdaptive(c)
		}
	}
	s.scheduleFailures()
}

// startClientProcesses schedules a client slot's behavior loops: Poisson
// queries and updates, plus the deterministic session-churn cycle. All loops
// stop once the slot is retired. offsetChurn staggers the first churn event
// uniformly within one lifespan (used for the initial population; nodes
// created mid-run just completed a join).
func (s *Simulator) startClientProcesses(c *clientNode, offsetChurn bool) {
	s.scheduleGuardedProcess(s.prof.Rates.QueryRate, c.alive,
		func() { s.userQueryFromClient(c) })
	s.scheduleGuardedProcess(s.prof.Rates.UpdateRate, c.alive,
		func() { s.clientUpdate(c) })
	if s.opts.Churn {
		first := c.lifespan
		if offsetChurn {
			first = s.rng.Float64() * c.lifespan
		}
		var cycle func()
		cycle = func() {
			if !c.alive() {
				return
			}
			s.clientJoin(c)
			s.sched.schedule(c.lifespan, cycle)
		}
		s.sched.schedule(first, cycle)
	}
}

// startPartnerProcesses schedules a super-peer partner's behavior loops:
// its own queries and updates, index maintenance churn, and duplicate-table
// cleanup.
func (s *Simulator) startPartnerProcesses(p *partnerNode, offsetChurn bool) {
	s.scheduleGuardedProcess(s.prof.Rates.QueryRate, p.alive,
		func() { s.userQueryFromPartner(p) })
	s.scheduleGuardedProcess(s.prof.Rates.UpdateRate, p.alive,
		func() { s.partnerUpdate(p) })
	if s.opts.Churn {
		first := p.lifespan
		if offsetChurn {
			first = s.rng.Float64() * p.lifespan
		}
		var cycle func()
		cycle = func() {
			if !p.alive() {
				return
			}
			s.partnerRejoin(p)
			s.sched.schedule(p.lifespan, cycle)
		}
		s.sched.schedule(first, cycle)
	}
}

// scheduleGuardedProcess runs fn as a Poisson process with the given rate;
// the process stops permanently once the guard fails.
func (s *Simulator) scheduleGuardedProcess(rate float64, alive func() bool, fn func()) {
	if rate <= 0 {
		return
	}
	var tick func()
	tick = func() {
		if !alive() {
			return
		}
		fn()
		s.sched.schedule(s.rng.ExpFloat64()/rate, tick)
	}
	s.sched.schedule(s.rng.ExpFloat64()/rate, tick)
}

// scheduleSeenCleanup runs a cluster's periodic seen-table tick, which
// retires the generations of a table that has been idle since they expired
// (an active table retires its own on access). The tick keeps its 120 s
// schedule because every golden pins EventsExecuted.
func (s *Simulator) scheduleSeenCleanup(c *clusterNode) {
	const interval = 120.0
	var tick func()
	tick = func() {
		if c.dissolved() {
			return
		}
		c.seen.roll(s.sched.now)
		s.sched.schedule(interval, tick)
	}
	s.sched.schedule(interval, tick)
}

// measure converts counters to loads and summary metrics.
func (s *Simulator) measure() *Measured {
	m := &Measured{
		Duration:          s.opts.Duration,
		QueriesIssued:     s.queries,
		QueriesForwarded:  s.queriesForwarded,
		Strategy:          s.route.Name(),
		EventsExecuted:    s.events,
		FailuresInjected:  s.failuresInjected,
		ClientQueriesLost: s.clientQueriesLost,
	}
	var clientSum analysis.Load
	clientCount := 0
	var ttlSum, degSum float64
	for _, c := range s.clusters {
		if c.dissolved() {
			continue
		}
		m.FinalClusters++
		var sp analysis.Load
		var spCls metrics.ByClass
		for _, p := range c.partners {
			sp = sp.Add(p.counters.load(s.opts.Duration))
			spCls.Merge(p.counters.cls)
		}
		perPartner := sp.Scale(1 / float64(len(c.partners)))
		m.SuperPeer = append(m.SuperPeer, perPartner)
		m.SuperPeerClassBps = append(m.SuperPeerClassBps,
			spCls.Scale(8/(s.opts.Duration*float64(len(c.partners)))))
		m.MeanSuperPeer = m.MeanSuperPeer.Add(perPartner)
		m.Aggregate = m.Aggregate.Add(sp)
		m.FinalPeers += len(c.partners)
		for _, cl := range c.clients {
			l := cl.counters.load(s.opts.Duration)
			clientSum = clientSum.Add(l)
			m.Aggregate = m.Aggregate.Add(l)
			clientCount++
		}
		m.FinalPeers += len(c.clients)
		ttlSum += float64(c.ttl)
		degSum += float64(len(c.neighbors))
	}
	if m.FinalClusters > 0 {
		k := float64(m.FinalClusters)
		m.MeanSuperPeer = m.MeanSuperPeer.Scale(1 / k)
		m.FinalMeanTTL = ttlSum / k
		m.FinalMeanOutdegree = degSum / k
	}
	if clientCount > 0 {
		m.MeanClient = clientSum.Scale(1 / float64(clientCount))
	}
	if s.queries > 0 {
		m.ResultsPerQuery = s.resultsTotal / float64(s.queries)
	}
	if s.respMsgs > 0 {
		m.EPL = s.respHops / s.respMsgs
	}
	s.advMeasure(m)
	return m
}
