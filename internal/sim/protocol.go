package sim

import (
	"spnet/internal/cost"
	"spnet/internal/gnutella"
	"spnet/internal/metrics"
)

// msgKind tells a message delivery's two kinds apart.
type msgKind uint8

const (
	msgQuery    msgKind = iota // handled by handleQuery
	msgResponse                // handled by handleResponse
)

// message is a query or a Response in flight between two super-peer
// partners: one payload for both kinds, packed so an event fits in 96 bytes.
// Counts are int32: the largest is a cluster's result count.
type message struct {
	id      uint64
	to      *partnerNode // the receiving partner
	from    *partnerNode // the sending partner (the reverse-path hop)
	terms   []string     // query keyword terms (content mode)
	class   int32        // query class sampled at the source (g distribution)
	ttl     int32        // query: remaining TTL, decremented by the receiver
	hops    int32        // overlay hops traveled so far
	addrs   int32        // response: responding collections
	results int32        // response: result count
	kind    msgKind
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
	s.markSeen(p.cluster, id, nil, origin, terms)

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
	msg := message{id: id, class: int32(class), terms: terms, ttl: int32(p.cluster.ttl)}
	s.forwardQuery(p, &msg, nil)
	return rec
}

// markSeen records a query's first arrival in the cluster's duplicate table:
// the reverse-path hop it came from (nil at the source), the local client
// that submitted it, and its terms when the routing strategy learns from hit
// history.
func (s *Simulator) markSeen(c *clusterNode, id uint64, from *partnerNode, origin *clientNode, terms []string) {
	e := c.seen.insert(id, s.sched.now)
	e.from, e.origin = from, origin
	if s.routeLearns {
		e.terms = terms
	}
}

// sendQueryTo transmits one copy of query msg from partner p to (one
// partner of) neighbor cluster nb.
func (s *Simulator) sendQueryTo(p *partnerNode, nb *clusterNode, msg *message) {
	if nb.isDown() || len(nb.partners) == 0 {
		return // the neighbor's connections are closed; nothing is sent
	}
	target := s.advPickNeighborPartner(p.cluster, nb)
	s.queriesForwarded++
	p.counters.addOut(metrics.ClassQuery, s.qBytes)
	p.counters.procU += s.sendQProc
	s.pmPartner(p)
	e := &s.sched.reserve(s.opts.Latency, true).msg
	*e = *msg
	e.kind, e.to, e.from = msgQuery, target, p
}

// handleQuery runs the receiver side of query propagation: duplicate drop,
// local processing, response, and forwarding with a decremented TTL.
func (s *Simulator) handleQuery(msg *message) {
	p := msg.to
	if p.cluster.isDown() {
		return // failed while the message was in flight
	}
	p.counters.addIn(metrics.ClassQuery, s.qBytes)
	p.counters.procU += s.recvQProc
	s.pmPartner(p)

	if p.cluster.seen.lookup(msg.id, s.sched.now) != nil {
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
			s.sendResponse(p, msg.from, &message{
				id: msg.id, addrs: 1, results: advForgedResults, forged: true,
			})
		}
		if drop {
			s.adv.relayDrops++
			return
		}
	}
	s.markSeen(p.cluster, msg.id, msg.from, nil, msg.terms)

	results, addrs := s.evaluateLocally(p, int(msg.class), msg.terms)
	p.counters.procU += float64(cost.ProcessQuery(float64(results)))
	if results > 0 {
		s.sendResponse(p, msg.from, &message{id: msg.id, addrs: int32(addrs), results: int32(results)})
	}

	ttl := msg.ttl - 1
	if ttl < 1 {
		return
	}
	fwd := message{id: msg.id, class: msg.class, terms: msg.terms, ttl: ttl, hops: msg.hops + 1}
	var exclude *clusterNode
	if msg.from != nil {
		exclude = msg.from.cluster // never back over the arrival edge
	}
	s.forwardQuery(p, &fwd, exclude)
}

// evaluateLocally determines the number of matching files and responding
// collections for a query over p's cluster index. In content mode the
// cluster's real inverted index is searched; otherwise each collection is
// binomial(x_i, f(class)), per Appendix B's match model.
func (s *Simulator) evaluateLocally(p *partnerNode, class int, terms []string) (results, addrs int) {
	if s.contentMode() {
		return contentEvaluate(p.cluster, terms)
	}
	for _, partner := range p.cluster.partners {
		if n := s.sampleMatches(class, partner.files, &partner.noMatch); n > 0 {
			results += n
			addrs++
		}
	}
	for _, cl := range p.cluster.clients {
		if n := s.sampleMatches(class, cl.files, &cl.noMatch); n > 0 {
			results += n
			addrs++
		}
	}
	return results, addrs
}

// sampleMatches draws a collection's binomial(files, f(class)) match count.
// row is the collection's memoised P(no match) per class, pointed at the
// simulator's shared row for its file count on first use and filled one
// class at a time, so a draw repeats no math.Exp or math.Log.
func (s *Simulator) sampleMatches(class, files int, row *[]float64) int {
	if files <= 0 {
		return 0 // no draw, as in stats.Binomial
	}
	if *row == nil {
		*row = s.noMatchRow(files)
	}
	qm := s.prof.Queries
	p0 := (*row)[class]
	if p0 < 0 {
		p0 = qm.NoMatchProb(class, files)
		(*row)[class] = p0
	}
	return qm.SampleMatchesFrom(s.rng, class, files, p0)
}

// noMatchRow returns the simulator's row of QueryModel.NoMatchProb values
// for collections of n files, one per class, -1 until computed. The memo
// lives on the Simulator, not on the QueryModel, because concurrent
// simulators share one profile.
func (s *Simulator) noMatchRow(n int) []float64 {
	row, ok := s.noMatch[n]
	if !ok {
		if s.noMatch == nil {
			s.noMatch = make(map[int][]float64)
		}
		row = make([]float64, s.prof.Queries.Classes())
		for j := range row {
			row[j] = -1
		}
		s.noMatch[n] = row
	}
	return row
}

// respCost returns the wire bytes of a concrete Response message.
func respCost(addrs, results int) float64 {
	return float64(gnutella.ResponseSize(addrs, results))
}

// sendResponse transmits one Response hop from p toward `to`: a copy of r
// (a Response being relayed, or a new one carrying only id, counts and the
// forged flag) one hop further.
func (s *Simulator) sendResponse(p *partnerNode, to *partnerNode, r *message) {
	b := respCost(int(r.addrs), int(r.results))
	p.counters.addOut(metrics.ClassResponse, b)
	p.counters.procU += float64(cost.SendRespBase) +
		cost.SendRespPerAddr*float64(r.addrs) + cost.SendRespPerResult*float64(r.results)
	s.pmPartner(p)
	e := &s.sched.reserve(s.opts.Latency, true).msg
	*e = *r
	e.kind, e.to, e.from, e.hops = msgResponse, to, p, r.hops+1
}

// handleResponse receives one Response hop: consume it at the source
// (forwarding to the originating client when there is one) or relay it
// along the reverse path.
func (s *Simulator) handleResponse(msg *message) {
	p := msg.to
	if p.cluster.isDown() {
		return // failed while the message was in flight
	}
	b := respCost(int(msg.addrs), int(msg.results))
	p.counters.addIn(metrics.ClassResponse, b)
	p.counters.procU += float64(cost.RecvRespBase) +
		cost.RecvRespPerAddr*float64(msg.addrs) + cost.RecvRespPerResult*float64(msg.results)
	s.pmPartner(p)

	entry := p.cluster.seen.lookup(msg.id, s.sched.now)
	if entry == nil {
		return // path expired: the query's generation was retired
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
		if len(entry.terms) > 0 {
			s.routingState(p.cluster).RecordHit(msg.from.cluster.id, entry.terms)
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
				rec.forged += int(msg.results)
				s.adv.forgedAccepted++
			} else {
				rec.genuine += int(msg.results)
			}
		}
		// The originating client may have been retired (promoted or moved)
		// while its query was in flight; responses to it are then dropped.
		if entry.origin != nil && entry.origin.alive() {
			s.deliverResponseToClient(p, entry.origin, int(msg.addrs), int(msg.results))
		}
		return
	}
	s.sendResponse(p, entry.from, msg)
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
