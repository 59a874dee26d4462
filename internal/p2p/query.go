package p2p

import (
	"sync"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
)

// routeEntry remembers where a query GUID arrived from, for duplicate
// detection and reverse-path response routing.
type routeEntry struct {
	back returnAddr
	// terms caches the query's keywords when the routing strategy learns
	// from hit history, so responses can credit the neighbor they came via.
	terms []string
	// forwarded is set once a copy has been forwarded (or originated) here;
	// until then a later copy with hops left is forwarded instead of dropped.
	forwarded bool
	at        time.Time
}

// returnAddr is where a query's responses go, the live counterpart of the
// simulator's seenEntry{from, origin}: the link the query arrived on — a
// client's or a peer's (*conn) — or the search this node runs for its own
// user (*ownSearch). reply hands it one QueryHit or Busy: this node's own
// answer, or one relayed from a peer, which a link passes on one hop further
// (Hops+1). DESIGN.md §18 maps the query path onto the simulator's.
type returnAddr interface {
	reply(m gnutella.Message, relayed bool)
}

// reply sends over the link best effort: if the link is already dead the
// sender will learn from the connection error instead.
func (c *conn) reply(m gnutella.Message, relayed bool) {
	if relayed {
		switch r := m.(type) {
		case *gnutella.QueryHit:
			fwd := *r
			fwd.Hops++
			m = &fwd
		case *gnutella.Busy:
			fwd := *r
			fwd.Hops++
			m = &fwd
		}
	}
	if err := c.send(m); err != nil {
		c.node.opts.Logf("p2p: responding to %s: %v", c.RemoteAddr(), err)
	}
}

// ownSearch is a search this node runs for its own user (super-peers are
// users too): the outcome its responses are collected into.
type ownSearch struct {
	mu  sync.Mutex
	out SearchOutcome
}

func (s *ownSearch) reply(m gnutella.Message, _ bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch r := m.(type) {
	case *gnutella.QueryHit:
		s.out.Results = append(s.out.Results, hitResults(r)...)
	case *gnutella.Busy:
		s.out.Busy++
	}
}

// Search floods a query from this node itself (super-peers are users too)
// and collects Response messages for the given window. Local matches are
// included.
func (n *Node) Search(query string, window time.Duration) ([]SearchResult, error) {
	out, err := n.SearchDetailed(query, window)
	return out.Results, err
}

// SearchDetailed is Search with per-neighbor delivery and Busy accounting.
// Dead overlay links degrade the result set; they do not error the search.
// A closed node, or one closing mid-window, ends it with errClosed.
func (n *Node) SearchDetailed(query string, window time.Duration) (*SearchOutcome, error) {
	id, s := gnutella.NewGUID(), &ownSearch{}
	neighbors := n.source(gnutella.Query{ID: id, Text: query}, s)
	var err error
	if !link.Sleep(window, n.stop) {
		err = errClosed
	}
	n.mu.Lock()
	delete(n.routes, id)
	n.mu.Unlock()
	s.mu.Lock()
	out := s.out
	s.out = SearchOutcome{} // a response already past the route lands apart from out
	s.mu.Unlock()
	out.Neighbors = neighbors
	return &out, err
}

// handleClientQuery services a client's query: the super-peer "will then
// submit the query to its neighbors as if it were its own", so it sources
// it exactly like its own search, with the client's link as the return
// address.
func (n *Node) handleClientQuery(c *conn, q *gnutella.Query) {
	if n.mis.busyLie() {
		// Adversary: refuse the client's query despite having capacity.
		n.sendBusy(c, q)
		return
	}
	if n.mis.dropQuery() {
		// Adversary: accept the query and discard it — the covert refusal a
		// client can only observe as a result window with nothing in it.
		return
	}
	n.source(*q, c)
}

// source floods q for a user, the simulator's sourceQuery: it routes the
// GUID back to the user, answers from the local index over that route — so
// local hits reach the user first, by the same path as relayed ones — and
// forwards the query with this node's TTL. A GUID already routed here is a
// duplicate and is dropped. It reports per-neighbor delivery.
func (n *Node) source(q gnutella.Query, back returnAddr) []NeighborStatus {
	n.mu.Lock()
	if _, dup := n.routes[q.ID]; dup {
		n.mu.Unlock()
		return nil
	}
	rt := &routeEntry{back: back, forwarded: true, at: time.Now()}
	if n.routeLearns {
		rt.terms = titleTerms(q.Text)
	}
	n.routes[q.ID] = rt
	hit := n.searchLocked(q.ID, q.Text)
	peers := n.peerListLocked(nil)
	q.TTL, q.Hops = uint8(n.opts.TTL), 0
	n.mu.Unlock()

	if hit != nil {
		back.reply(hit, false)
	}
	return n.forward(q, peers)
}

// relay is the receiver side of query flooding, the simulator's handleQuery:
// duplicate drop, local processing, response over the arrival link, and
// forwarding with a decremented TTL to every other neighbor.
//
// A node answers a query once, for the first copy, and forwards it once,
// for the first copy with hops left to forward. Every other copy is dropped.
// The two differ only when a copy that ends here (TTL 1) overtakes one that
// can still travel — on a loopback fleet a co-partner's relay can beat the
// source's own copy to a neighbor — and dropping the later copy would stop
// the flood one hop short. Hits keep following the first copy's reverse
// path, which leads back to the source as well. Forwarding a copy once per
// extra hop left instead would cost a node a second fan-out whenever a
// longer path wins a race even if the first copy already had TTL to spare.
func (n *Node) relay(c *conn, q *gnutella.Query) {
	if n.mis != nil {
		if n.mis.forgeHit() {
			c.reply(forgeQueryHit(q), false)
		}
		if n.mis.dropQuery() {
			return // freeloading: accepted, then silently discarded
		}
	}
	n.mu.Lock()
	rt, dup := n.routes[q.ID]
	if dup && (rt.forwarded || q.TTL <= 1) {
		n.mu.Unlock()
		return // redundant copy: received, then dropped
	}
	var hit *gnutella.QueryHit
	if !dup {
		rt = &routeEntry{back: c, at: time.Now()}
		if n.routeLearns {
			rt.terms = titleTerms(q.Text)
		}
		n.routes[q.ID] = rt
		hit = n.searchLocked(q.ID, q.Text)
	}
	var peers []*conn
	if q.TTL > 1 {
		rt.forwarded = true
		peers = n.peerListLocked(c)
	}
	n.mu.Unlock()

	if hit != nil {
		hit.Hops = q.Hops
		c.reply(hit, false)
	}
	n.forward(gnutella.Query{
		ID: q.ID, TTL: q.TTL - 1, Hops: q.Hops + 1,
		MinSpeed: q.MinSpeed, Text: q.Text,
	}, peers)
}

// forward is the forwarding decision source and relay share: the routing
// strategy picks among the candidate peer links (snapshotted under n.mu by
// the caller), and the copy q goes to each pick. It reports per-neighbor
// delivery.
func (n *Node) forward(q gnutella.Query, peers []*conn) []NeighborStatus {
	peers = n.selectPeers(peers, &q)
	if len(peers) == 0 {
		return nil
	}
	sent := q // copied only here, so a query nobody is sent costs nothing
	return n.flood(&sent, peers)
}

// flood sends a query to the given peers and reports per-neighbor delivery
// status: a failed link degrades the search instead of failing it.
func (n *Node) flood(q *gnutella.Query, peers []*conn) []NeighborStatus {
	out := make([]NeighborStatus, 0, len(peers))
	for _, p := range peers {
		err := p.send(q)
		if err != nil {
			n.opts.Logf("p2p: flooding to %s: %v", p.RemoteAddr(), err)
		}
		out = append(out, NeighborStatus{Addr: p.RemoteAddr().String(), Err: err})
	}
	return out
}

// reverse is the reverse path's one route lookup, shared by every QueryHit
// and Busy — the lookup in the simulator's handleResponse. ok is false when
// no route is held for id: the query was never sourced or relayed here, or
// its route expired. back is nil when the query came from a client that has
// since left; its responses are dropped. terms is set when the routing
// strategy learns from hits.
func (n *Node) reverse(id gnutella.GUID) (back returnAddr, terms []string, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rt, ok := n.routes[id]
	if !ok {
		return nil, nil, false
	}
	if c, onLink := rt.back.(*conn); onLink && c.role == roleClient && n.clients[c.owner] != c {
		return nil, rt.terms, true
	}
	return rt.back, rt.terms, true
}

// handleQueryHit routes a Response along the reverse path: to the peer the
// query came from, to the local client that originated it, or to the node's
// own search. c is the peer link the hit arrived on; when the routing
// strategy learns from hit history that link gets the credit.
//
// Hits are validated before anything else happens with them. A hit whose
// GUID matches no outstanding query is unsolicited — forged, replayed, or
// stale — and is dropped and counted, never relayed. Under Trust, a hit
// with no dialable responder behind any claimed result is dropped as forged
// before the routing strategy can credit the sending link, and the link's
// reputation is debited; a validated hit earns the link a good observation.
func (n *Node) handleQueryHit(c *conn, h *gnutella.QueryHit) {
	back, terms, ok := n.reverse(h.ID)
	if !ok {
		n.metrics.HitsUnsolicited.Inc()
		if n.book != nil {
			n.book.Observe(c.peerID, false)
		}
		return
	}
	if n.book != nil {
		if hitLooksForged(h) {
			n.metrics.HitsForged.Inc()
			n.book.Observe(c.peerID, false)
			return
		}
		n.book.Observe(c.peerID, true)
	}
	if len(terms) > 0 {
		n.rstate.RecordHit(c.peerID, terms)
	}
	if back != nil {
		back.reply(h, true)
	}
}

// handleBusy routes an overloaded peer's load-shed signal along the reverse
// path, like handleQueryHit, so the query's originator can account for
// degraded coverage; a search of the node's own counts it. Under Trust a
// solicited Busy debits the sending link's reliability: a refusal is a
// refusal whether the peer is genuinely overloaded or Busy-lying, and that
// symmetry is exactly how persistent liars lose score while an
// occasionally-loaded honest peer's good observations dominate.
func (n *Node) handleBusy(c *conn, b *gnutella.Busy) {
	n.metrics.BusyReceived.Inc()
	back, _, ok := n.reverse(b.ID)
	if ok && n.book != nil {
		n.book.Observe(c.peerID, false)
	}
	if back != nil {
		back.reply(b, true)
	}
}
