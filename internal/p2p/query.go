package p2p

import (
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
)

// Search floods a query from this node itself (super-peers are users too)
// and collects Response messages for the given window. Local matches are
// included.
func (n *Node) Search(query string, window time.Duration) ([]SearchResult, error) {
	out, err := n.SearchDetailed(query, window)
	return out.Results, err
}

// SearchDetailed is Search with per-neighbor delivery and Busy accounting.
// Dead overlay links degrade the result set; they do not error the search.
// A closed node, or one closing mid-window, ends it with errClosed. Its
// responses come on ownLink until the window closes and it deletes its route.
func (n *Node) SearchDetailed(query string, window time.Duration) (*SearchOutcome, error) {
	id, s := gnutella.NewGUID(), &SearchOutcome{}
	n.mu.Lock()
	n.searches[id] = s
	n.mu.Unlock()
	neighbors := n.step(ownLink, &gnutella.Query{ID: id, Text: query}, time.Time{})
	var err error
	if !link.Sleep(window, n.stop) {
		err = errClosed
	}
	n.mu.Lock()
	delete(n.searches, id)
	delete(n.core.routes, id)
	out := *s
	n.mu.Unlock()
	out.Neighbors = neighbors
	return &out, err
}

// step hands one frame that arrived on link from — a Query stamped with
// now, a QueryHit or a Busy — to the core under n.mu, and performs the
// sends it decides once the lock is released: a frame for a link goes out
// on it, best effort, and one for the node's own search is collected while
// the lock is still held. A link that has gone by then is skipped; a send
// that fails is logged, and the far side learns from its connection error.
// step reports per-neighbor delivery of an own search's query copies.
func (n *Node) step(from int, m gnutella.Message, now time.Time) []NeighborStatus {
	n.mu.Lock()
	var sends []send
	if q, ok := m.(*gnutella.Query); ok {
		sends = n.core.query(from, q, now, nil)
	} else {
		sends = n.core.respond(from, m, nil)
	}
	links := make([]*conn, len(sends))
	for i, s := range sends {
		switch {
		case s.to == ownLink:
			n.collectLocked(s.m)
		case s.to >= 0:
			links[i] = n.peers[s.to]
		default:
			links[i] = n.clients[clientLink(s.to)]
		}
	}
	n.mu.Unlock()

	var status []NeighborStatus
	for i, s := range sends {
		c := links[i]
		if c == nil {
			continue
		}
		err := c.send(s.m)
		_, isQuery := s.m.(*gnutella.Query)
		switch {
		case err != nil && isQuery:
			n.opts.Logf("p2p: flooding to %s: %v", c.RemoteAddr(), err)
		case err != nil:
			n.opts.Logf("p2p: responding to %s: %v", c.RemoteAddr(), err)
		}
		if isQuery && from == ownLink {
			status = append(status, NeighborStatus{Addr: c.RemoteAddr().String(), Err: err})
		}
	}
	return status
}

// collectLocked files one response into the own search it answers. The
// core sends on ownLink only over an own search's route, and the search
// deletes its route and its entry together, so the entry is there.
func (n *Node) collectLocked(m gnutella.Message) {
	switch r := m.(type) {
	case *gnutella.QueryHit:
		s := n.searches[r.ID]
		s.Results = append(s.Results, hitResults(r)...)
	case *gnutella.Busy:
		n.searches[r.ID].Busy++
	}
}
