package p2p

import (
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spnet/internal/cost"
	"spnet/internal/gnutella"
	"spnet/internal/index"
	"spnet/internal/link"
	"spnet/internal/metrics"
)

// conn is one TCP link — to a client, a neighbor super-peer, a controller or
// a downloader. Its link.Conn serializes writes and keeps the link alive;
// each conn has one reader goroutine.
type conn struct {
	*link.Conn
	node *Node
	// role is what the link is to the node: it picks the capacity budget
	// the link is admitted under and the loop that serves it.
	role  role
	owner int // client owner id; -1 for peers
	// peerID is the link's stable id in the routing strategy's neighbor
	// namespace; assigned under Node.mu when the peer link registers.
	peerID int
	// sentAdvert is the canonical key of the last routing summary sent on
	// this link (guarded by Node.sumMu); adverts are re-sent only on change.
	sentAdvert string
	// inflight counts this link's queries that are queued or executing;
	// admission refuses with Busy above Options.MaxInflight.
	inflight atomic.Int32
	// queries rate-limits a client's queries (Options.ClientQueryRate).
	queries bucket
}

// bucket is a token bucket that starts full: tokens refill at rate per
// second up to burst. A client's queries each take one token or are
// refused; served transfer bytes are debited and waited out. A rate of 0 is
// unlimited.
type bucket struct {
	rate, burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// refillLocked credits the tokens earned since the last call.
func (b *bucket) refillLocked(now time.Time) {
	if b.last.IsZero() {
		b.tokens = b.burst
	} else {
		b.tokens = min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	}
	b.last = now
}

// take spends one token, or refuses when less than one is left.
func (b *bucket) take() bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(time.Now())
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// wait debits n tokens, going into debt if it must, and waits until the debt
// is repaid or stop closes. It reports whether the wait ran its course.
// Debt, not refusal, paces at the granularity of n.
func (b *bucket) wait(n int, stop <-chan struct{}) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	b.refillLocked(time.Now())
	b.tokens -= float64(n)
	debt := -b.tokens
	b.mu.Unlock()
	return debt <= 0 || link.Sleep(time.Duration(debt/b.rate*float64(time.Second)), stop)
}

func newConn(n *Node, lc *link.Conn, r role) *conn {
	return &conn{Conn: lc, node: n, role: r, owner: -1,
		queries: bucket{rate: n.opts.ClientQueryRate, burst: n.opts.ClientQueryBurst}}
}

// linkID is the link's id in the query core: its peer id, or its client
// owner's clientLink.
func (c *conn) linkID() int {
	if c.role == rolePeer {
		return c.peerID
	}
	return clientLink(c.owner)
}

// send writes one message within the node's WriteTimeout.
func (c *conn) send(m gnutella.Message) error { return c.Send(m, c.node.opts.WriteTimeout) }

// runClient serves a client connection: the first message must be a Join;
// afterwards the client may query, update, or re-join.
func (n *Node) runClient(c *conn) {
	defer func() {
		n.dropClient(c)
		n.summariesChanged() // the departed client's terms left the index
	}()
	for {
		msg, err := c.Recv(time.Time{})
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *gnutella.Join:
			n.handleClientJoin(c, m)
			n.summariesChanged()
		case *gnutella.Query:
			if c.owner < 0 {
				n.opts.Logf("p2p: query before join from %s", c.RemoteAddr())
				return
			}
			if !n.dropDuplicate(c, m.ID, m.TTL) {
				n.enqueueQuery(c, m)
			}
		case *gnutella.Update:
			if c.owner < 0 {
				n.opts.Logf("p2p: update before join from %s", c.RemoteAddr())
				return
			}
			n.handleClientUpdate(c, m)
			n.summariesChanged()
		default:
			n.opts.Logf("p2p: unexpected %T from client %s", m, c.RemoteAddr())
			return
		}
	}
}

// handleClientJoin registers (or replaces) the client's collection: the
// super-peer "will add this metadata to its index" (Section 3.2).
func (n *Node) handleClientJoin(c *conn, j *gnutella.Join) {
	n.metrics.ProcUnits.Add(float64(cost.ProcessJoin(len(j.Files))))
	rec := responder(j.ID, c.RemoteAddr())
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.owner < 0 {
		c.owner = n.nextOwn
		n.nextOwn++
		n.clients[c.owner] = c
	}
	n.core.join(c.owner, rec, j.Files)
}

// dropClient removes a departed client's metadata ("when a client leaves,
// its super-peer will remove its metadata from the index").
func (n *Node) dropClient(c *conn) {
	c.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.owner >= 0 {
		n.core.leave(c.owner)
		delete(n.clients, c.owner)
	}
}

// handleClientUpdate applies a single-item collection change.
func (n *Node) handleClientUpdate(c *conn, u *gnutella.Update) {
	n.metrics.ProcUnits.Add(float64(cost.ProcessUpdateCost()))
	n.mu.Lock()
	defer n.mu.Unlock()
	doc := index.DocID{Owner: c.owner, File: u.File.FileIndex}
	switch u.Op {
	case gnutella.OpDelete:
		n.core.index.Remove(doc)
	case gnutella.OpInsert, gnutella.OpModify:
		if terms := titleTerms(u.File.Title); len(terms) > 0 {
			n.core.index.Add(doc, terms)
		}
	}
}

// runPeer serves an overlay link to another super-peer.
func (n *Node) runPeer(c *conn) {
	n.mu.Lock()
	c.peerID = n.nextPeerID
	n.nextPeerID++
	n.peers[c.peerID] = c
	n.core.addPeer(c.peerID)
	n.mu.Unlock()
	// Expose the link's reliability score while it is up. Peer ids are
	// never reused, so each link gets its own series.
	peerLabel := metrics.Label{Name: "peer", Value: strconv.Itoa(c.peerID)}
	if n.core.book != nil {
		id := c.peerID
		n.metrics.Registry().GaugeFunc(metrics.MetricPeerReputation,
			"Beta-posterior reliability score of a neighbor super-peer link.",
			func() float64 { return n.core.book.Score(id) }, peerLabel)
	}
	n.summariesChanged() // advertise our routing summary on the new link
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.peers, c.peerID)
		n.core.dropPeer(c.peerID)
		n.mu.Unlock()
		n.core.rstate.DropNeighbor(c.peerID)
		if n.core.book != nil {
			n.metrics.Registry().Unregister(metrics.MetricPeerReputation, peerLabel)
			n.core.book.Drop(c.peerID)
		}
		n.summariesChanged() // adverts shrink without this link's summary
	}()
	var (
		f  gnutella.Frame
		sl sendList
	)
	for {
		if err := c.RecvFrame(time.Time{}, &f); err != nil {
			return
		}
		if !n.peerFrame(c, &f, &sl) {
			n.opts.Logf("p2p: unexpected %v from peer %s", f.Type(), c.RemoteAddr())
			return
		}
	}
}

// peerFrame acts on one frame a peer link's reader read into f, by its
// header (DESIGN.md §17 "Who owns a frame's bytes"): a Query is decoded only
// if it is not a duplicate, and a QueryHit or Busy goes to the core as the
// frame itself and is relayed from f before the reader reads again. It
// reports false for a frame no peer sends, which ends the link.
func (n *Node) peerFrame(c *conn, f *gnutella.Frame, sl *sendList) bool {
	switch f.Type() {
	case gnutella.TypeQuery:
		if h := f.Header(); !n.dropDuplicate(c, h.ID, h.TTL) {
			q, _ := f.Decode() // checked when it was read
			n.enqueueQuery(c, q.(*gnutella.Query))
		}
	case gnutella.TypeQueryHit, gnutella.TypeBusy:
		n.step(c.peerID, f, time.Time{}, sl) // a response stamps no route
	case gnutella.TypeSummary:
		if n.routeSummaries {
			m, _ := f.Decode()
			n.core.rstate.SetSummary(c.peerID, m.(*gnutella.Summary).Terms)
			n.summariesChanged() // our adverts to other links now differ
		}
	default:
		return false
	}
	return true
}

// peerListLocked snapshots the peer set.
func (n *Node) peerListLocked() []*conn {
	out := make([]*conn, 0, len(n.peers))
	for _, p := range n.peers {
		out = append(out, p)
	}
	return out
}

// responder is the record a QueryHit carries for an owner at address a:
// its IPv4 and port when a is a TCP address, zero values for anything else.
func responder(guid gnutella.GUID, a net.Addr) gnutella.ResponderRecord {
	rec := gnutella.ResponderRecord{ClientGUID: guid}
	if tcp, ok := a.(*net.TCPAddr); ok {
		copy(rec.IP[:], tcp.IP.To4())
		rec.Port = uint16(tcp.Port)
	}
	return rec
}
