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
	neighbors := n.step(ownLink, &gnutella.Query{ID: id, Text: query}, time.Time{}, new(sendList))
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

// sendList is step's scratch: the sends the core decides and the link each
// goes out on. A goroutine that steps the core owns one — each query worker,
// each peer link's reader, and each own search its own — so a step allocates
// only the frames it sends. step clears both after sending, so a list kept
// between steps holds no frame or conn alive.
type sendList struct {
	sends []send
	links []*conn
}

// step hands one message that arrived on link from — a decoded Query
// stamped with now, or a peer's QueryHit or Busy Frame — to the core under
// n.mu, and performs the sends it decides once the lock is released: a
// frame for a link goes out on it, best effort, and one for the node's own
// search is collected while the lock is still held. A link that has gone by
// then is skipped; a send that fails is logged, and the far side learns from
// its connection error. The core owns m from then on; a relayed Frame is
// written before step returns, so its reader may read into it again. step
// reports per-neighbor delivery of an own search's query copies.
func (n *Node) step(from int, m gnutella.Message, now time.Time, sl *sendList) []NeighborStatus {
	n.mu.Lock()
	if q, ok := m.(*gnutella.Query); ok {
		sl.sends = n.core.query(from, q, now, sl.sends[:0])
	} else {
		sl.sends = n.core.respond(from, m.(*gnutella.Frame), sl.sends[:0])
	}
	sl.links = sl.links[:0]
	for _, s := range sl.sends {
		var c *conn
		switch {
		case s.to == ownLink:
			n.collectLocked(s.m)
		case s.to >= 0:
			c = n.peers[s.to]
		default:
			c = n.clients[clientLink(s.to)]
		}
		sl.links = append(sl.links, c)
	}
	n.mu.Unlock()

	var status []NeighborStatus
	for i, s := range sl.sends {
		c := sl.links[i]
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
	clear(sl.sends)
	clear(sl.links)
	return status
}

// collectLocked files one response into the own search it answers: the
// node's own QueryHit, or a peer's QueryHit or Busy Frame, the one frame a
// node decodes for its hits. The core sends on ownLink only over an own
// search's route, and the search deletes its route and its entry together,
// so the entry is there.
func (n *Node) collectLocked(m gnutella.Message) {
	if f, ok := m.(*gnutella.Frame); ok {
		if f.Type() == gnutella.TypeBusy {
			n.searches[f.Header().ID].Busy++
			return
		}
		m, _ = f.Decode() // a peer's hit, checked when it was read
	}
	r := m.(*gnutella.QueryHit)
	s := n.searches[r.ID]
	s.Results = append(s.Results, hitResults(r)...)
}
