package p2p

import (
	"encoding/binary"
	"slices"
	"strings"
	"time"

	"spnet/internal/cost"
	"spnet/internal/gnutella"
	"spnet/internal/index"
	"spnet/internal/metrics"
	"spnet/internal/routing"
	"spnet/internal/stats"
	"spnet/internal/trust"
)

// Link ids name where a frame came from and where a send goes, in one
// namespace: a peer link is its peer id (>= 0), the node's own search is
// ownLink, and a client's link is clientLink(owner).
const ownLink = -1

// clientLink is the link id of owner's client link. It is its own inverse:
// clientLink(clientLink(owner)) == owner.
func clientLink(owner int) int { return -2 - owner }

// send is one frame the core decides to send: m on link to.
type send struct {
	to int
	m  gnutella.Message
}

// route remembers where a query GUID arrived from, for duplicate detection
// and the reverse path: the simulator's seenEntry{from, origin}.
type route struct {
	back int
	// terms caches the query's keywords when the routing strategy learns
	// from hit history, so responses can credit the neighbor they came via.
	terms []string
	// forwarded is set once a copy has been forwarded (or sourced) here;
	// until then a later copy with hops left is forwarded instead of dropped.
	forwarded bool
	at        time.Time
}

// core makes every query-path decision of a live node (DESIGN.md §18): the
// route table and the duplicate rule, the local index answer, the routing
// strategy's pick and the reverse path. It takes a frame with the link it
// arrived on and appends the sends it decides to a slice the caller owns.
// It holds no lock, goroutine, conn or clock: a Node calls it under Node.mu
// and performs the sends, and a test can drive it with none of them.
type core struct {
	ttl   int // stamped on the queries and hits this node sources
	index *index.Index
	// responders is each joined owner's responder record, fixed when it
	// joins; an owner without one has left.
	responders map[int]gnutella.ResponderRecord
	routes     map[gnutella.GUID]*route
	peers      []int // peer link ids, ascending: the strategy's stable order

	strategy routing.Strategy
	learns   bool
	rstate   *routing.NodeState
	book     *trust.Book     // nil unless Options.Trust
	mis      *misbehaveState // nil on honest nodes
	metrics  *metrics.NodeMetrics

	cands   []routing.Candidate // forward's scratch
	picks   []int
	matches []index.Match // search's scratch
}

func newCore(opts *Options, m *metrics.NodeMetrics) *core {
	c := &core{
		ttl:        opts.TTL,
		index:      index.New(),
		responders: make(map[int]gnutella.ResponderRecord),
		routes:     make(map[gnutella.GUID]*route),
		strategy:   opts.Routing,
		rstate:     routing.NewNodeState(stats.NewRNG(opts.RoutingSeed)),
		mis:        newMisbehaveState(opts.Misbehave),
		metrics:    m,
	}
	if c.strategy == nil {
		c.strategy = routing.NewFlood()
	}
	c.learns = routing.Learns(c.strategy)
	if opts.Trust {
		c.book = trust.NewBook()
	}
	m.InitForwarded(c.strategy.Name())
	return c
}

// join indexes owner's files under the responder record its hits will
// carry, replacing whatever it joined with before.
func (c *core) join(owner int, rec gnutella.ResponderRecord, files []gnutella.MetadataRecord) {
	c.index.RemoveOwner(owner)
	c.responders[owner] = rec
	for _, f := range files {
		if terms := titleTerms(f.Title); len(terms) > 0 {
			// Owner ids are non-negative by construction, so Add cannot fail.
			c.index.Add(index.DocID{Owner: owner, File: f.FileIndex}, terms)
		}
	}
}

// leave drops a departed owner's files and record. Responses to its
// queries are dropped from then on.
func (c *core) leave(owner int) {
	c.index.RemoveOwner(owner)
	delete(c.responders, owner)
}

// addPeer and dropPeer keep the peer link ids sorted, so the strategy sees
// its candidates in a stable order without a sort per forward.
func (c *core) addPeer(id int) {
	i, _ := slices.BinarySearch(c.peers, id)
	c.peers = slices.Insert(c.peers, i, id)
}

func (c *core) dropPeer(id int) {
	if i, ok := slices.BinarySearch(c.peers, id); ok {
		c.peers = slices.Delete(c.peers, i, i+1)
	}
}

// query handles one query at now: a copy a peer relayed (from >= 0), or a
// user's query — a client's, or the node's own search — which the node
// sources with its own TTL at Hops 0, as "if it were its own". It is the
// simulator's sourceQuery and handleQuery in one: the duplicate rule, the
// adversary's draws, the route, the local answer over it, then the forward.
//
// A node answers a query once, for the first copy, and forwards it once,
// for the first copy with hops left to forward; every other copy is dropped.
// The two differ only when a copy that ends here (TTL 1) overtakes one that
// can still travel. DESIGN.md §16 gives the case and why this forward-once
// rule does not forward every copy with more hops left.
func (c *core) query(from int, q *gnutella.Query, now time.Time, out []send) []send {
	if c.redundant(from, q.ID, q.TTL) {
		return out // received, then dropped
	}
	relayed := from >= 0
	ttl, hops, hitHops := q.TTL-1, q.Hops+1, q.Hops // the copy sent on
	if !relayed {
		ttl, hops, hitHops = uint8(c.ttl), 0, 0
	}
	onward := !relayed || q.TTL > 1
	rt, dup := c.routes[q.ID]
	terms := titleTerms(q.Text)
	if !dup {
		var stop bool
		if out, stop = c.misbehave(from, q, out); stop {
			return out
		}
		rt = &route{back: from, at: now}
		if c.learns {
			rt.terms = terms
		}
		c.routes[q.ID] = rt
		if hit := c.search(q.ID, terms); hit != nil {
			hit.Hops = hitHops
			out = c.reply(out, from, hit) // local hits reach the user first
		}
	}
	if onward {
		rt.forwarded = true
		out = c.forward(out, from, q, ttl, hops, terms)
	}
	return out
}

// redundant reports whether a copy of query id with the given TTL arriving
// on link from is one the forward-once rule drops: its GUID has a route, and
// the copy is a user's, ends here (TTL <= 1) or comes after the query was
// forwarded. Node applies it on arrival too, to a peer's copy before it is
// decoded, so a duplicate takes no decode and no dispatch slot (DESIGN.md
// §18).
func (c *core) redundant(from int, id gnutella.GUID, ttl uint8) bool {
	rt, dup := c.routes[id]
	return dup && (rt.forwarded || from < 0 || ttl <= 1)
}

// misbehave is an adversary's look at a query, drawn only for a copy with no
// route yet, as the simulator draws only for a copy its cluster has not
// seen: a peer's copy may be answered with a forged hit, a client's query
// refused with a lying Busy, and either dropped. It reports whether the
// query goes no further.
func (c *core) misbehave(from int, q *gnutella.Query, out []send) ([]send, bool) {
	switch {
	case c.mis == nil || from == ownLink:
		return out, false
	case from >= 0:
		if c.mis.draw(c.mis.opts.Forge) {
			out = append(out, send{from, forgeQueryHit(q)})
		}
	case c.mis.draw(c.mis.opts.BusyLie):
		return c.reply(out, from, &gnutella.Busy{ID: q.ID, TTL: 1, Hops: q.Hops}), true
	}
	return out, c.mis.draw(c.mis.opts.Drop) // freeloading: accepted, then discarded
}

// search answers a query's terms from the local index and builds the
// QueryHit: the results plus "the address of each client whose collection
// produced a result". It returns nil when nothing matches, and charges the
// Table 2 processing cost either way. Results stop, deterministically, at the
// first match that would need a 256th responder or take the payload past
// gnutella.MaxPayloadLen, a peer link's read limit; that bound also keeps
// each responder's ResultCount far below 65536.
func (c *core) search(id gnutella.GUID, terms []string) *gnutella.QueryHit {
	c.matches = c.index.AppendSearch(c.matches[:0], terms)
	matches := c.matches
	defer clear(matches) // the scratch keeps no title alive between searches
	c.metrics.ProcUnits.Add(float64(cost.ProcessQuery(float64(len(matches)))))
	if len(matches) == 0 {
		return nil
	}
	hit := &gnutella.QueryHit{ID: id, TTL: uint8(c.ttl), Results: make([]gnutella.ResultRecord, 0, len(matches))}
	var ownerBuf [4]int
	owners := ownerBuf[:0] // owners[ref] is hit.Responders[ref]'s owner
	payload := 1           // the responder count byte
	for _, m := range matches {
		ref := slices.Index(owners, m.Doc.Owner)
		grow := gnutella.ResultRecordLen
		if ref < 0 {
			grow += gnutella.ResponderRecordLen
		}
		if ref < 0 && len(owners) >= 255 || payload+grow > gnutella.MaxPayloadLen {
			break // wire and reader limits; deterministic truncation
		}
		payload += grow
		if ref < 0 {
			ref = len(owners)
			owners = append(owners, m.Doc.Owner)
			hit.Responders = append(hit.Responders, c.responders[m.Doc.Owner])
		}
		hit.Responders[ref].ResultCount++
		hit.Results = append(hit.Results, gnutella.ResultRecord{
			FileIndex: m.Doc.File,
			AddrRef:   uint16(ref),
			Title:     m.Title,
		})
	}
	return hit
}

// forward is the simulator's forwardQuery: the routing strategy picks among
// the peer links but from, and one copy of q with the given TTL and Hops
// goes to each pick. Hops is the query's overlay distance at the decision:
// 0 when this node sources it, >= 1 when it relays.
func (c *core) forward(out []send, from int, q *gnutella.Query, ttl, hops uint8, terms []string) []send {
	c.cands = c.cands[:0]
	for _, id := range c.peers {
		if id != from {
			c.cands = append(c.cands, routing.Candidate{ID: id})
		}
	}
	if len(c.cands) == 0 {
		return out
	}
	rq := routing.Query{ID: binary.LittleEndian.Uint64(q.ID[:8]), Terms: terms, TTL: int(ttl), Hops: int(hops)}
	c.picks = c.strategy.Select(c.picks[:0], rq, c.cands, c.rstate)
	c.metrics.QueriesForwarded.Add(int64(len(c.picks)))
	if len(c.picks) == 0 {
		return out
	}
	sent := &gnutella.Query{ID: q.ID, TTL: ttl, Hops: hops, MinSpeed: q.MinSpeed, Text: q.Text}
	for _, i := range c.picks {
		id := c.cands[i].ID
		if c.learns {
			c.rstate.RecordForward(id, terms)
		}
		out = append(out, send{id, sent})
	}
	return out
}

// respond routes a QueryHit or Busy frame that arrived on peer link from
// back along its query's route, the simulator's handleResponse: one hop
// further over a link, or as it came to the node's own search. It reads the
// frame's header, and under Trust its responder block, and decodes nothing:
// the core owns f from then on and relays f itself (Frame.Relay: Hops + 1),
// so the caller sends it before it reads into f again. A hit with no route is
// unsolicited (forged, replayed or stale) and is dropped. Under Trust a hit
// with no dialable responder is dropped as forged before the strategy can
// credit it, and each hit is the sending link's good or bad observation. A
// solicited Busy is a bad one, whether the peer is loaded or lying:
// persistent liars lose score, an honest peer's hits dominate.
func (c *core) respond(from int, f *gnutella.Frame, out []send) []send {
	rt := c.routes[f.Header().ID]
	switch f.Type() {
	case gnutella.TypeQueryHit:
		if rt == nil {
			c.metrics.HitsUnsolicited.Inc()
			c.observe(from, false)
			return out
		}
		forged := c.book != nil && hitLooksForged(f)
		c.observe(from, !forged)
		if forged {
			c.metrics.HitsForged.Inc()
			return out
		}
		if len(rt.terms) > 0 {
			c.rstate.RecordHit(from, rt.terms)
		}
	case gnutella.TypeBusy:
		c.metrics.BusyReceived.Inc()
		if rt == nil {
			return out
		}
		c.observe(from, false)
	default:
		return out
	}
	if rt.back != ownLink {
		f.Relay()
	}
	return c.reply(out, rt.back, f)
}

// reply appends m for link to, unless to is the link of a client that has
// left: its responses are dropped unsent, like the simulator's
// origin.alive() check.
func (c *core) reply(out []send, to int, m gnutella.Message) []send {
	if to < ownLink {
		if _, joined := c.responders[clientLink(to)]; !joined {
			return out
		}
	}
	return append(out, send{to, m})
}

// observe records one good or bad observation of a peer link under Trust.
func (c *core) observe(peer int, good bool) {
	if c.book != nil {
		c.book.Observe(peer, good)
	}
}

// expire drops every route older than routeTTL at now but an own search's,
// which lasts until its window closes and the search deletes it.
func (c *core) expire(now time.Time) {
	for id, rt := range c.routes {
		if rt.back != ownLink && now.Sub(rt.at) > routeTTL {
			delete(c.routes, id)
		}
	}
}

// titleTerms tokenizes a title or query string into lower-case terms.
func titleTerms(s string) []string { return strings.Fields(strings.ToLower(s)) }
