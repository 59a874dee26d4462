package p2p

import (
	"net"
	"strconv"
	"strings"
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
			n.enqueueQuery(c, m)
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
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.owner < 0 {
		c.owner = n.nextOwn
		n.nextOwn++
		n.clients[c.owner] = c
	} else {
		n.index.RemoveOwner(c.owner)
	}
	n.guids[c.owner] = j.ID
	for _, f := range j.Files {
		terms := titleTerms(f.Title)
		if len(terms) == 0 {
			continue
		}
		// Owner ids are non-negative by construction, so Add cannot fail.
		n.index.Add(index.DocID{Owner: c.owner, File: f.FileIndex}, terms)
	}
}

// dropClient removes a departed client's metadata ("when a client leaves,
// its super-peer will remove its metadata from the index").
func (n *Node) dropClient(c *conn) {
	c.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.owner >= 0 {
		n.index.RemoveOwner(c.owner)
		delete(n.clients, c.owner)
		delete(n.guids, c.owner)
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
		n.index.Remove(doc)
	case gnutella.OpInsert, gnutella.OpModify:
		if terms := titleTerms(u.File.Title); len(terms) > 0 {
			n.index.Add(doc, terms)
		}
	}
}

// runPeer serves an overlay link to another super-peer.
func (n *Node) runPeer(c *conn) {
	n.mu.Lock()
	c.peerID = n.nextPeerID
	n.nextPeerID++
	n.peers[c] = struct{}{}
	n.mu.Unlock()
	// Expose the link's reliability score while it is up. Peer ids are
	// never reused, so each link gets its own series.
	peerLabel := metrics.Label{Name: "peer", Value: strconv.Itoa(c.peerID)}
	if n.book != nil {
		id := c.peerID
		n.metrics.Registry().GaugeFunc(metrics.MetricPeerReputation,
			"Beta-posterior reliability score of a neighbor super-peer link.",
			func() float64 { return n.book.Score(id) }, peerLabel)
	}
	n.summariesChanged() // advertise our routing summary on the new link
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.peers, c)
		n.mu.Unlock()
		n.rstate.DropNeighbor(c.peerID)
		if n.book != nil {
			n.metrics.Registry().Unregister(metrics.MetricPeerReputation, peerLabel)
			n.book.Drop(c.peerID)
		}
		n.summariesChanged() // adverts shrink without this link's summary
	}()
	for {
		msg, err := c.Recv(time.Time{})
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *gnutella.Query:
			n.enqueueQuery(c, m)
		case *gnutella.QueryHit:
			n.handleQueryHit(c, m)
		case *gnutella.Busy:
			n.handleBusy(c, m)
		case *gnutella.Summary:
			if n.routeSummaries {
				n.rstate.SetSummary(c.peerID, m.Terms)
				n.summariesChanged() // our adverts to other links now differ
			}
		default:
			n.opts.Logf("p2p: unexpected %T from peer %s", m, c.RemoteAddr())
			return
		}
	}
}

// peerListLocked snapshots the peer set, excluding one link.
func (n *Node) peerListLocked(except *conn) []*conn {
	out := make([]*conn, 0, len(n.peers))
	for p := range n.peers {
		if p != except {
			out = append(out, p)
		}
	}
	return out
}

// searchLocked answers a keyword query over the index and builds the
// QueryHit: results plus "the address of each client whose collection
// produced a result". Returns nil when nothing matches. Callers hold n.mu.
func (n *Node) searchLocked(id gnutella.GUID, text string) *gnutella.QueryHit {
	terms := titleTerms(text)
	if len(terms) == 0 {
		n.meterProcessQuery(0)
		return nil
	}
	matches := n.index.Search(terms)
	n.meterProcessQuery(len(matches))
	if len(matches) == 0 {
		return nil
	}
	hit := &gnutella.QueryHit{ID: id, TTL: uint8(n.opts.TTL)}
	addrByOwner := make(map[int]uint16)
	for _, m := range matches {
		ref, ok := addrByOwner[m.Doc.Owner]
		if !ok {
			if len(hit.Responders) >= 255 {
				break // wire limit; deterministic truncation
			}
			ref = uint16(len(hit.Responders))
			addrByOwner[m.Doc.Owner] = ref
			rec := gnutella.ResponderRecord{ClientGUID: n.guids[m.Doc.Owner]}
			if m.Doc.Owner == storeOwner {
				// Store-served content: the node itself is the responder, at
				// its listen address — dialable, unlike client remote addrs.
				if n.ln != nil {
					rec.IP, rec.Port = splitAddr(n.ln.Addr())
				}
			} else if cl := n.clients[m.Doc.Owner]; cl != nil {
				rec.IP, rec.Port = splitAddr(cl.RemoteAddr())
			}
			hit.Responders = append(hit.Responders, rec)
		}
		hit.Responders[ref].ResultCount++
		hit.Results = append(hit.Results, gnutella.ResultRecord{
			FileIndex: m.Doc.File,
			AddrRef:   ref,
			Title:     strings.Join(m.Terms, " "),
		})
	}
	return hit
}

// titleTerms tokenizes a title or query string into lower-case terms.
func titleTerms(s string) []string { return strings.Fields(strings.ToLower(s)) }

// splitAddr extracts IPv4 and port from a TCP address; zero values for
// anything else.
func splitAddr(a net.Addr) ([4]byte, uint16) {
	var ip [4]byte
	tcp, ok := a.(*net.TCPAddr)
	if !ok {
		return ip, 0
	}
	if v4 := tcp.IP.To4(); v4 != nil {
		copy(ip[:], v4)
	}
	return ip, uint16(tcp.Port)
}
