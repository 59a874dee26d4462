package sim

import (
	"slices"

	"spnet/internal/analysis"
	"spnet/internal/cost"
	"spnet/internal/design"
)

// AdaptiveOptions turn on the Section 5.3 local decision rules: each
// super-peer periodically inspects its own measured load and acts — growing
// its outdegree, promoting partners, splitting or merging clusters, dropping
// useless neighbors (Appendix E), and decaying its TTL (rule III) — steering
// the network toward a globally efficient topology with no central
// coordinator.
type AdaptiveOptions struct {
	// Limit is the load each super-peer is willing to handle (the paper's
	// "limited altruism" assumption).
	Limit analysis.Load
	// Thresholds tune the advisor; zero values select the defaults.
	Thresholds design.Thresholds
	// Interval is the local evaluation period in seconds (default 60).
	Interval float64
	// MaxOutdegree caps rule II's neighbor growth (default 30).
	MaxOutdegree int
	// ArrivalRate is the rate (clients/second) at which brand-new clients
	// arrive and ask a random super-peer for admission, exercising rule I
	// under population growth. Zero disables arrivals.
	ArrivalRate float64
}

func (o *AdaptiveOptions) interval() float64 {
	if o.Interval <= 0 {
		return 60
	}
	return o.Interval
}

func (o *AdaptiveOptions) maxOutdegree() int {
	if o.MaxOutdegree <= 0 {
		return 30
	}
	return o.MaxOutdegree
}

// adaptiveState is one cluster's local bookkeeping between evaluations.
type adaptiveState struct {
	lastIn, lastOut, lastProc float64 // counter snapshots at the last eval
	lastEvalAt                float64
	prevClients               int

	// Response-horizon observation for rule III. The window accumulates
	// across evaluations until enough of the cluster's own queries have
	// been seen to trust the horizon ("if a super-peer rarely or never
	// receives responses from beyond x hops away").
	ttlWindowMaxHops int
	ttlWindowQueries int

	// Results-per-query observation, also used by the Appendix E probe.
	resultsObserved float64
	queriesObserved int

	// Appendix E neighbor probe. Judgment is deferred until the probe has
	// seen enough of the cluster's own queries to compare result rates.
	probing        bool
	probedNeighbor *clusterNode
	resultsBefore  float64 // results/query before the probe
	probeQueries   int
	probeResults   float64
}

// noteSourceQuery and noteSourceResponse feed the local observations the
// adaptive rules depend on; they are called from the protocol path.
func (s *Simulator) noteSourceQuery(c *clusterNode, localResults int) {
	if c.adaptive == nil {
		return
	}
	c.adaptive.queriesObserved++
	c.adaptive.resultsObserved += float64(localResults)
	c.adaptive.ttlWindowQueries++
	if c.adaptive.probing {
		c.adaptive.probeQueries++
		c.adaptive.probeResults += float64(localResults)
	}
}

func (s *Simulator) noteSourceResponse(c *clusterNode, msg *message) {
	if c.adaptive == nil {
		return
	}
	c.adaptive.resultsObserved += float64(msg.results)
	if hops := int(msg.hops); hops > c.adaptive.ttlWindowMaxHops {
		c.adaptive.ttlWindowMaxHops = hops
	}
	if c.adaptive.probing {
		c.adaptive.probeResults += float64(msg.results)
	}
}

// scheduleAdaptive installs the periodic local evaluation for one cluster
// and, once per simulation, the new-client arrival process.
func (s *Simulator) scheduleAdaptive(c *clusterNode) {
	c.adaptive = &adaptiveState{prevClients: len(c.clients), lastEvalAt: s.sched.now}
	var tick func()
	tick = func() {
		if c.dissolved() {
			return
		}
		s.adaptiveEvaluate(c)
		s.sched.schedule(s.opts.Adaptive.interval(), tick)
	}
	// Phase-shift evaluations so clusters do not act in lockstep.
	s.sched.schedule(s.rng.Float64()*s.opts.Adaptive.interval(), tick)

	if !s.arrivalsScheduled && s.opts.Adaptive.ArrivalRate > 0 {
		s.arrivalsScheduled = true
		s.scheduleGuardedProcess(s.opts.Adaptive.ArrivalRate,
			func() bool { return true }, s.newClientArrival)
	}
}

// observedLoad returns the cluster's mean per-partner load since the last
// evaluation, and snapshots the counters.
func (s *Simulator) observedLoad(c *clusterNode) analysis.Load {
	st := c.adaptive
	var in, out, proc float64
	for _, p := range c.partners {
		in += p.counters.bytesIn
		out += p.counters.bytesOut
		proc += p.counters.procU
	}
	dt := s.sched.now - st.lastEvalAt
	if dt <= 0 {
		dt = 1
	}
	k := float64(len(c.partners))
	load := analysis.Load{
		InBps:  (in - st.lastIn) * 8 / dt / k,
		OutBps: (out - st.lastOut) * 8 / dt / k,
		ProcHz: cost.UnitsToHz(proc-st.lastProc) / dt / k,
	}
	st.lastIn, st.lastOut, st.lastProc = in, out, proc
	st.lastEvalAt = s.sched.now
	return load
}

// adaptiveEvaluate runs one Section 5.3 decision round for a cluster.
func (s *Simulator) adaptiveEvaluate(c *clusterNode) {
	st := c.adaptive
	opts := s.opts.Adaptive
	load := s.observedLoad(c)

	resultsPerQuery := 0.0
	if st.queriesObserved > 0 {
		resultsPerQuery = st.resultsObserved / float64(st.queriesObserved)
	}

	// Appendix E probe: judge the most recent neighbor addition only once
	// enough queries have flowed to compare result rates fairly.
	const probeMinQueries = 20
	probeReady := st.probing && st.probeQueries >= probeMinQueries
	probeGain := false
	if probeReady {
		probeGain = st.probeResults/float64(st.probeQueries) > st.resultsBefore*1.02
	}
	// Rule III needs a trustworthy horizon: only report the observed
	// maximum response distance once enough of the cluster's own queries
	// have been sampled, and let the TTL decay one hop per decision so a
	// noisy window cannot collapse the reach.
	const ttlMinQueries = 30
	maxRespHops := 0
	if st.ttlWindowQueries >= ttlMinQueries {
		maxRespHops = st.ttlWindowMaxHops
	}
	state := design.LocalState{
		Load:                       load,
		Limit:                      opts.Limit,
		Clients:                    len(c.clients),
		Outdegree:                  len(c.neighbors),
		TTL:                        c.ttl,
		MaxRespHops:                maxRespHops,
		ClusterGrowing:             len(c.clients) > st.prevClients,
		ProbedNeighbor:             probeReady,
		GainedResultsAfterNeighbor: probeGain,
	}
	adv := design.Advise(state, opts.Thresholds)

	c.acceptingClients = adv.AcceptClients

	if adv.DropProbedNeighbor && st.probedNeighbor != nil && !st.probedNeighbor.dissolved() {
		s.removeEdge(c, st.probedNeighbor)
	}
	if probeReady || adv.DropProbedNeighbor {
		st.probing = false
		st.probedNeighbor = nil
		st.probeQueries = 0
		st.probeResults = 0
	}

	switch {
	case adv.PromotePartner && len(c.partners) == 1 && len(c.clients) >= 2:
		s.promotePartner(c)
	case adv.SplitCluster && len(c.partners) > 1 && len(c.clients) >= 4:
		// Already redundant and still overloaded: split instead.
		s.splitCluster(c)
	case adv.TryCoalesce:
		s.tryCoalesce(c)
	}

	if adv.AddNeighbor && !st.probing && len(c.neighbors) < opts.maxOutdegree() {
		if nb := s.randomNonNeighbor(c); nb != nil {
			s.addEdge(c, nb)
			st.probing = true
			st.probedNeighbor = nb
			st.resultsBefore = resultsPerQuery
			st.probeQueries = 0
			st.probeResults = 0
		}
	}

	if adv.NewTTL < c.ttl {
		c.ttl--
		if c.ttl < adv.NewTTL {
			c.ttl = adv.NewTTL
		}
		st.ttlWindowMaxHops = 0
		st.ttlWindowQueries = 0
	} else if st.ttlWindowQueries >= ttlMinQueries {
		// Horizon checked and the TTL held: start a fresh window.
		st.ttlWindowMaxHops = 0
		st.ttlWindowQueries = 0
	}

	st.prevClients = len(c.clients)
	st.resultsObserved = 0
	st.queriesObserved = 0
}

// newClientArrival models the bootstrap path: a fresh client asks a random
// super-peer ("pong server" style) for admission; per rule I super-peers
// accept unless overloaded, in which case the client retries elsewhere.
func (s *Simulator) newClientArrival() {
	prof := s.prof
	for attempts := 0; attempts < 5; attempts++ {
		target := s.clusters[s.rng.Intn(len(s.clusters))]
		if target.dissolved() || !target.acceptingClients {
			continue
		}
		c := &clientNode{
			cluster:  target,
			files:    prof.Files.Sample(s.rng),
			lifespan: prof.Lifespans.Sample(s.rng),
		}
		target.clients = append(target.clients, c)
		s.clientJoin(c)
		s.startClientProcesses(c, false)
		return
	}
}

// promotePartner converts the most capable client into a second super-peer
// partner (rule I's preferred overload response; rule #2 says redundancy is
// good). Every remaining client ships its metadata to the new partner, and
// the existing partner hands over its own collection.
func (s *Simulator) promotePartner(c *clusterNode) {
	cl := s.detachLargestClient(c)
	if cl == nil {
		return
	}
	p := &partnerNode{cluster: c, files: cl.files, lifespan: cl.lifespan}
	c.setPartners(append(c.partners, p))
	c.targetPartners = len(c.partners)
	cl.cluster = nil // retire the client slot; its processes stop

	for _, other := range c.clients {
		s.clientJoinOne(other, p)
	}
	s.partnerRejoin(c.partners[0])
	s.startPartnerProcesses(p, false)
}

// splitCluster promotes a client to super-peer of a brand-new cluster and
// moves half the clients there (rule I's alternative overload response).
func (s *Simulator) splitCluster(c *clusterNode) {
	seedClient := s.detachLargestClient(c)
	if seedClient == nil {
		return
	}
	nc := &clusterNode{
		id:               len(s.clusters),
		seen:             seenTable{span: c.seen.span},
		ttl:              c.ttl,
		acceptingClients: true,
	}
	sp := &partnerNode{cluster: nc, files: seedClient.files, lifespan: seedClient.lifespan}
	nc.setPartners([]*partnerNode{sp})
	nc.targetPartners = 1
	seedClient.cluster = nil
	s.clusters = append(s.clusters, nc)

	// Move half the clients (the cluster keeps the rest).
	move := len(c.clients) / 2
	for i := 0; i < move; i++ {
		cl := c.clients[len(c.clients)-1]
		c.clients = c.clients[:len(c.clients)-1]
		cl.cluster = nil // retire the old slot
		moved := &clientNode{cluster: nc, files: cl.files, lifespan: cl.lifespan}
		nc.clients = append(nc.clients, moved)
		s.clientJoin(moved)
		s.startClientProcesses(moved, false)
	}

	// Wire the new cluster into the overlay: to its origin and a couple of
	// the origin's neighbors.
	s.addEdge(nc, c)
	added := 0
	for _, nb := range c.neighbors {
		if added >= 2 {
			break
		}
		if nb == nc {
			continue
		}
		s.addEdge(nc, nb)
		added++
	}
	s.startPartnerProcesses(sp, false)
	s.scheduleSeenCleanup(nc)
	if s.opts.Adaptive != nil {
		s.scheduleAdaptive(nc)
	}
}

// tryCoalesce merges the smallest underloaded neighbor cluster into c
// (rule I's underload response): the neighbor's super-peer resigns to
// client, and its clients re-join c.
func (s *Simulator) tryCoalesce(c *clusterNode) {
	var smallest *clusterNode
	for _, nb := range c.neighbors {
		if len(nb.partners) != 1 {
			continue // don't dissolve redundant clusters
		}
		if smallest == nil || len(nb.clients) < len(smallest.clients) {
			smallest = nb
		}
	}
	if smallest == nil || len(smallest.clients) > len(c.clients) {
		return // only absorb clusters no larger than ourselves
	}

	// Move the neighbor's clients over.
	for _, cl := range smallest.clients {
		cl.cluster = nil
		moved := &clientNode{cluster: c, files: cl.files, lifespan: cl.lifespan}
		c.clients = append(c.clients, moved)
		s.clientJoin(moved)
		s.startClientProcesses(moved, false)
	}
	smallest.clients = nil

	// The neighbor's super-peer resigns to client of c.
	old := smallest.partners[0]
	resigned := &clientNode{cluster: c, files: old.files, lifespan: old.lifespan}
	c.clients = append(c.clients, resigned)
	s.clientJoin(resigned)
	s.startClientProcesses(resigned, false)

	// Rewire: the dissolved cluster's neighbors connect to c so the overlay
	// stays connected, then it leaves the overlay.
	smallest.setPartners(nil) // marks the cluster dissolved
	for _, nb := range neighborList(smallest) {
		s.removeEdge(smallest, nb)
		if nb != c {
			s.addEdge(c, nb)
		}
	}
}

// detachLargestClient removes and returns the client sharing the most files
// ("select a capable client").
func (s *Simulator) detachLargestClient(c *clusterNode) *clientNode {
	best := -1
	for i, cl := range c.clients {
		if best < 0 || cl.files > c.clients[best].files {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	cl := c.clients[best]
	c.clients = append(c.clients[:best], c.clients[best+1:]...)
	return cl
}

// randomNonNeighbor picks a random live cluster that is not yet a neighbor.
func (s *Simulator) randomNonNeighbor(c *clusterNode) *clusterNode {
	for attempts := 0; attempts < 8; attempts++ {
		cand := s.clusters[s.rng.Intn(len(s.clusters))]
		if cand == c || cand.dissolved() {
			continue
		}
		if c.hasNeighbor(cand.id) {
			continue
		}
		return cand
	}
	return nil
}

// addEdge / removeEdge keep the overlay symmetric and each neighbor slice
// id-ascending and duplicate-free.
func (s *Simulator) addEdge(a, b *clusterNode) {
	if a == b {
		return
	}
	a.insertNeighbor(b)
	b.insertNeighbor(a)
}

func (s *Simulator) removeEdge(a, b *clusterNode) {
	a.deleteNeighbor(b)
	b.deleteNeighbor(a)
}

// neighborList snapshots a cluster's neighbors, for loops that rewire them.
func neighborList(c *clusterNode) []*clusterNode {
	return slices.Clone(c.neighbors)
}
