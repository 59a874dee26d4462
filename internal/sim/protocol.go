package sim

import (
	"spnet/internal/cost"
	"spnet/internal/gnutella"
	"spnet/internal/metrics"
)

// queryMsg is a query in flight between two super-peer partners.
type queryMsg struct {
	id    uint64
	class int      // query class sampled at the source (g distribution)
	terms []string // keyword terms (content mode)
	ttl   int      // remaining TTL, decremented by the receiver
	hops  int      // overlay hops traveled so far (routing strategy input)
	from  *partnerNode
}

// respMsg is a Response traveling the reverse path toward the source.
type respMsg struct {
	id      uint64
	addrs   int
	results int
	hops    int
	from    *partnerNode
	// forged marks a fabricated QueryHit from a malicious relay (adversary
	// mode). The flag is simulator bookkeeping, invisible to honest nodes
	// unless trust auditing is on.
	forged bool
}

// pmPartner and pmClient add the packet-multiplex overhead (Appendix A)
// for one message handled at the node's current connection count.
func (s *Simulator) pmPartner(p *partnerNode) {
	p.counters.procU += float64(cost.PacketMultiplex(p.cluster.partnerConns()))
}

func (s *Simulator) pmClient(c *clientNode) {
	c.counters.procU += float64(cost.PacketMultiplex(c.cluster.clientConns()))
}

// userQueryFromClient: a client submits a query to one of its partners
// (round-robin), who then acts as the source super-peer.
func (s *Simulator) userQueryFromClient(c *clientNode) {
	if len(c.cluster.partners) == 0 {
		return
	}
	if c.cluster.isDown() {
		// The super-peer failed and no partner remains: the client is
		// temporarily disconnected and its query is lost (Section 3.2).
		s.clientQueriesLost++
		return
	}
	p, slot := s.advPickPartner(c)
	if s.adversaryMode() && p.malicious {
		a := s.adv.opts
		refuse := a.BusyLie > 0 && s.adv.rng.Float64() < a.BusyLie
		drop := a.Drop > 0 && s.adv.rng.Float64() < a.Drop
		if refuse {
			// The partner never accepts the query: Busy goes back and the
			// query is lost (recorded as an unanswered client query).
			s.queries++
			s.advNewRecord(-1, true)
			s.advBusyLie(p, c, slot)
			return
		}
		if drop {
			// Freeloading: the partner accepts the query (and its cost),
			// then discards it.
			s.chargeClientToPartner(c, p, metrics.ClassQuery, s.qBytes, s.sendQProc, s.recvQProc)
			s.queries++
			s.adv.clientDrops++
			rec := s.advNewRecord(-1, true)
			s.advObserveClient(c, slot, rec)
			return
		}
	}
	// Client -> super-peer hop.
	s.chargeClientToPartner(c, p, metrics.ClassQuery, s.qBytes, s.sendQProc, s.recvQProc)
	rec := s.sourceQuery(p, c)
	if rec != nil {
		s.advObserveClient(c, slot, rec)
	}
}

// userQueryFromPartner: a super-peer submits its own query (super-peers are
// users too).
func (s *Simulator) userQueryFromPartner(p *partnerNode) {
	if p.cluster.isDown() {
		return
	}
	s.sourceQuery(p, nil)
}

// sourceQuery executes the source-side behavior at partner p: process over
// the local index, answer the originating client if any, and forward over
// the overlay with the cluster's TTL under the active routing strategy.
func (s *Simulator) sourceQuery(p *partnerNode, origin *clientNode) *advQueryRecord {
	s.queries++
	id := s.nextQueryID
	s.nextQueryID++
	rec := s.advNewRecord(int64(id), origin != nil)
	var class int
	var terms []string
	if s.contentMode() {
		terms = s.sampleQueryTerms()
	} else {
		class = s.prof.Queries.SampleClass(s.rng)
	}
	s.markSeen(p.cluster, id, seenEntry{from: nil, origin: origin, at: s.sched.now}, terms)

	// Process over the local index.
	results, addrs := s.evaluateLocally(p, class, terms)
	p.counters.procU += float64(cost.ProcessQuery(float64(results)))
	s.resultsTotal += float64(results)
	s.noteSourceQuery(p.cluster, results)
	if rec != nil {
		rec.genuine += results
	}
	if origin != nil && results > 0 {
		s.deliverResponseToClient(p, origin, addrs, results)
	}

	if p.cluster.ttl < 1 {
		return rec
	}
	msg := queryMsg{id: id, class: class, terms: terms, ttl: p.cluster.ttl, from: p}
	s.forwardQuery(p, msg, nil)
	return rec
}

// markSeen records a query in the cluster's duplicate table, and its terms
// beside it when the routing strategy learns from hit history.
func (s *Simulator) markSeen(c *clusterNode, id uint64, entry seenEntry, terms []string) {
	c.seen[id] = entry
	if s.routeLearns && len(terms) > 0 {
		if c.seenTerms == nil {
			c.seenTerms = make(map[uint64][]string)
		}
		c.seenTerms[id] = terms
	}
}

// sendQueryTo transmits one query copy from partner p to (one partner of)
// neighbor cluster nb.
func (s *Simulator) sendQueryTo(p *partnerNode, nb *clusterNode, msg queryMsg) {
	if nb.isDown() || len(nb.partners) == 0 {
		return // the neighbor's connections are closed; nothing is sent
	}
	target := s.advPickNeighborPartner(p.cluster, nb)
	s.queriesForwarded++
	p.counters.addOut(metrics.ClassQuery, s.qBytes)
	p.counters.procU += s.sendQProc
	s.pmPartner(p)
	ev := event{kind: evQuery, target: target, query: msg}
	ev.query.from = p
	s.sched.push(s.opts.Latency, &ev)
}

// handleQuery runs the receiver side of query propagation: duplicate drop,
// local processing, response, and forwarding with a decremented TTL.
func (s *Simulator) handleQuery(p *partnerNode, msg queryMsg) {
	if p.cluster.isDown() {
		return // failed while the message was in flight
	}
	p.counters.addIn(metrics.ClassQuery, s.qBytes)
	p.counters.procU += s.recvQProc
	s.pmPartner(p)

	if _, dup := p.cluster.seen[msg.id]; dup {
		return // redundant copy: received, then dropped
	}
	if s.adversaryMode() && p.malicious {
		// Misbehave before the cluster marks the query seen, so a copy
		// arriving later over another edge can still be served honestly.
		a := s.adv.opts
		forge := a.Forge > 0 && s.adv.rng.Float64() < a.Forge
		drop := a.Drop > 0 && s.adv.rng.Float64() < a.Drop
		if forge {
			s.adv.forged++
			s.sendResponse(p, msg.from, respMsg{
				id: msg.id, addrs: 1, results: advForgedResults, forged: true,
			})
		}
		if drop {
			s.adv.relayDrops++
			return
		}
	}
	s.markSeen(p.cluster, msg.id, seenEntry{from: msg.from, at: s.sched.now}, msg.terms)

	results, addrs := s.evaluateLocally(p, msg.class, msg.terms)
	p.counters.procU += float64(cost.ProcessQuery(float64(results)))
	if results > 0 {
		s.sendResponse(p, msg.from, respMsg{id: msg.id, addrs: addrs, results: results})
	}

	ttl := msg.ttl - 1
	if ttl < 1 {
		return
	}
	fwd := queryMsg{id: msg.id, class: msg.class, terms: msg.terms, ttl: ttl, hops: msg.hops + 1}
	var exclude *clusterNode
	if msg.from != nil {
		exclude = msg.from.cluster // never back over the arrival edge
	}
	s.forwardQuery(p, fwd, exclude)
}

// evaluateLocally determines the number of matching files and responding
// collections for a query over p's cluster index. In content mode the
// cluster's real inverted index is searched; otherwise each collection is
// binomial(x_i, f(class)), per Appendix B's match model.
func (s *Simulator) evaluateLocally(p *partnerNode, class int, terms []string) (results, addrs int) {
	if s.contentMode() {
		return contentEvaluate(p.cluster, terms)
	}
	qm := s.prof.Queries
	for _, partner := range p.cluster.partners {
		if n := qm.SampleMatches(s.rng, class, partner.files); n > 0 {
			results += n
			addrs++
		}
	}
	for _, cl := range p.cluster.clients {
		if n := qm.SampleMatches(s.rng, class, cl.files); n > 0 {
			results += n
			addrs++
		}
	}
	return results, addrs
}

// respCost returns the wire bytes of a concrete Response message.
func respCost(addrs, results int) float64 {
	return float64(gnutella.ResponseSize(addrs, results))
}

// sendResponse transmits one Response hop from p toward `to`.
func (s *Simulator) sendResponse(p *partnerNode, to *partnerNode, msg respMsg) {
	b := respCost(msg.addrs, msg.results)
	p.counters.addOut(metrics.ClassResponse, b)
	p.counters.procU += float64(cost.SendRespBase) +
		cost.SendRespPerAddr*float64(msg.addrs) + cost.SendRespPerResult*float64(msg.results)
	s.pmPartner(p)
	ev := event{kind: evResponse, target: to, resp: msg}
	ev.resp.from = p
	ev.resp.hops++
	s.sched.push(s.opts.Latency, &ev)
}

// handleResponse receives one Response hop: consume it at the source
// (forwarding to the originating client when there is one) or relay it
// along the reverse path.
func (s *Simulator) handleResponse(p *partnerNode, msg respMsg) {
	if p.cluster.isDown() {
		return // failed while the message was in flight
	}
	b := respCost(msg.addrs, msg.results)
	p.counters.addIn(metrics.ClassResponse, b)
	p.counters.procU += float64(cost.RecvRespBase) +
		cost.RecvRespPerAddr*float64(msg.addrs) + cost.RecvRespPerResult*float64(msg.results)
	s.pmPartner(p)

	entry, ok := p.cluster.seen[msg.id]
	if !ok {
		return // path expired (e.g. the query record was cleaned up)
	}
	if msg.forged && s.adversaryMode() && s.adv.opts.Trust {
		// Audit: the fabricated hit is detected, dropped before it can
		// credit the routing strategy, and the sending partner's overlay
		// reputation takes the hit.
		s.adv.forgedDetected++
		if p.cluster.trustBook != nil && msg.from != nil {
			p.cluster.trustBook.Observe(msg.from.advID, false)
		}
		return
	}
	if s.adversaryMode() && s.adv.opts.Trust && !msg.forged &&
		msg.from != nil && p.cluster.trustBook != nil {
		// A genuine response relayed through this neighbor partner: score
		// it good in the overlay book.
		p.cluster.trustBook.Observe(msg.from.advID, true)
	}
	if s.routeLearns && msg.from != nil {
		// Credit the neighbor the response arrived through: its subtree
		// produced results for these terms. (With trust off, forged hits
		// reach this point and inflate the learned strategy's credit — the
		// attack the trustsweep experiment measures.)
		if terms := p.cluster.seenTerms[msg.id]; len(terms) > 0 {
			s.routingState(p.cluster).RecordHit(msg.from.cluster.id, terms)
		}
	}
	if entry.from == nil {
		// This partner sourced the query.
		s.resultsTotal += float64(msg.results)
		s.respMsgs++
		s.respHops += float64(msg.hops)
		s.noteSourceResponse(p.cluster, msg)
		if rec := s.advRecord(msg.id); rec != nil {
			if msg.forged {
				rec.forged += msg.results
				s.adv.forgedAccepted++
			} else {
				rec.genuine += msg.results
			}
		}
		// The originating client may have been retired (promoted or moved)
		// while its query was in flight; responses to it are then dropped.
		if entry.origin != nil && entry.origin.alive() {
			s.deliverResponseToClient(p, entry.origin, msg.addrs, msg.results)
		}
		return
	}
	s.sendResponse(p, entry.from, respMsg{id: msg.id, addrs: msg.addrs, results: msg.results, hops: msg.hops, forged: msg.forged})
}

// deliverResponseToClient forwards one Response from the source super-peer
// to the client that submitted the query.
func (s *Simulator) deliverResponseToClient(p *partnerNode, c *clientNode, addrs, results int) {
	b := respCost(addrs, results)
	sendU := float64(cost.SendRespBase) +
		cost.SendRespPerAddr*float64(addrs) + cost.SendRespPerResult*float64(results)
	recvU := float64(cost.RecvRespBase) +
		cost.RecvRespPerAddr*float64(addrs) + cost.RecvRespPerResult*float64(results)
	s.chargePartnerToClient(p, c, metrics.ClassResponse, b, sendU, recvU)
}
