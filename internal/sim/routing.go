package sim

import (
	"spnet/internal/index"
	"spnet/internal/routing"
	"spnet/internal/stats"
)

// routingSeedSalt decorrelates the routing RNG root from the simulation
// seed: routeRNG = NewRNG(Seed ^ salt) gives randomized strategies their own
// deterministic stream without consuming from s.rng, whose draw sequence the
// flood goldens pin down.
const routingSeedSalt = 0x726f757465726e67 // "routerng"

// initRouting resolves Options.Routing (nil = flood) and caches the
// strategy's capability flags.
func (s *Simulator) initRouting() {
	s.route = s.opts.Routing
	if s.route == nil {
		s.route = routing.NewFlood()
	}
	s.routeLearns = routing.Learns(s.route)
	s.routeSummaries = routing.UsesSummaries(s.route)
	s.routeRNG = stats.NewRNG(s.opts.Seed ^ routingSeedSalt)
}

// routingState returns (creating on first use) the cluster's per-neighbor
// strategy state. Each cluster's RNG is split off the independent routing
// root, keyed by cluster id.
func (s *Simulator) routingState(c *clusterNode) *routing.NodeState {
	if c.routing == nil {
		c.routing = routing.NewNodeState(s.routeRNG.Split(uint64(c.id)))
	}
	return c.routing
}

// forwardQuery runs the routing strategy over p's neighbor clusters and
// sends the selected query copies. exclude is the cluster the query arrived
// from (nil at the source), which is never a candidate. Candidates are
// enumerated in ascending cluster-id order — the neighbor slice's order — so
// the flood strategy reproduces the pre-strategy per-neighbor loop and its
// event sequence exactly.
func (s *Simulator) forwardQuery(p *partnerNode, msg *message, exclude *clusterNode) {
	cands, nodes := s.candBuf[:0], s.candNodes[:0]
	for _, nb := range p.cluster.neighbors {
		if nb == exclude {
			continue
		}
		cands = append(cands, routing.Candidate{ID: nb.id})
		nodes = append(nodes, nb)
	}
	s.candBuf, s.candNodes = cands, nodes
	if len(cands) == 0 {
		return
	}
	if s.routeSummaries {
		s.refreshSummaries(p.cluster)
	}
	q := routing.Query{ID: msg.id, Terms: msg.terms, TTL: int(msg.ttl), Hops: int(msg.hops)}
	sel := s.route.Select(s.selBuf[:0], q, cands, s.routingState(p.cluster))
	s.selBuf = sel[:0]
	for _, i := range sel {
		nb := nodes[i]
		if s.routeLearns {
			s.routingState(p.cluster).RecordForward(nb.id, msg.terms)
		}
		s.sendQueryTo(p, nb, msg)
	}
}

// summaryRefreshInterval is the minimum virtual time between summary
// rebuilds at one cluster. Routing indices are advertised periodically, not
// on every index mutation — under churn, indexGen bumps with every client
// replacement, and rebuilding each cluster's split-horizon aggregation per
// bump is quadratic in the overlay. The interval bounds staleness instead:
// a rebuilt summary may lag reality by up to this many virtual seconds,
// which only ever over-prunes content that just churned in. Static networks
// (indexGen constant after init) are unaffected and still build once.
const summaryRefreshInterval = 30

// refreshSummaries rebuilds c's per-neighbor routing-index summaries if any
// content index changed since they were last built, at most once per
// summaryRefreshInterval of virtual time. The summary for edge c→nb
// aggregates the index digest of every cluster reachable through nb without
// passing back through c (split horizon) — the term-set specialization of
// Crespo & Garcia-Molina's routing indices.
func (s *Simulator) refreshSummaries(c *clusterNode) {
	if !s.contentMode() || c.summaryGen == s.indexGen || s.sched.now < c.summaryNext {
		return
	}
	c.summaryGen = s.indexGen
	c.summaryNext = s.sched.now + summaryRefreshInterval
	ns := s.routingState(c)
	for _, nb := range c.neighbors {
		agg := index.MergeSummary(nil)
		visited := map[int]bool{c.id: true, nb.id: true}
		queue := []*clusterNode{nb}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			agg = index.MergeSummary(agg, s.clusterSummary(cur))
			for _, next := range cur.neighbors {
				if !visited[next.id] {
					visited[next.id] = true
					queue = append(queue, next)
				}
			}
		}
		ns.SetSummary(nb.id, agg.Terms())
	}
}

// clusterSummary returns c's own index digest, cached until the index
// mutates (contentReindexClient invalidates it). Sharing the snapshot across
// every neighbor BFS that reaches c keeps rebuild cost proportional to term
// merging, not repeated digesting.
func (s *Simulator) clusterSummary(c *clusterNode) *index.Summary {
	if c.ownSummary == nil && c.index != nil {
		c.ownSummary = c.index.Summary()
	}
	return c.ownSummary
}
