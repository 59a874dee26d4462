// Package p2p is a working super-peer node over TCP: the system the paper
// models, runnable. A Node acts "as a server to a set of clients, and as an
// equal in a network of super-peers" (Section 1): clients connect, ship
// their collection metadata (Join), and submit keyword queries; the node
// answers from an inverted index over its clients' titles and floods the
// query over its peer links with a TTL, Gnutella-style, relaying Response
// messages back along the reverse path.
//
// The wire format is internal/gnutella's — the same byte layout the paper's
// cost model prices — and the index is internal/index's inverted lists.
// Every connection is served by its own goroutine.
package p2p

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/index"
	"spnet/internal/link"
	"spnet/internal/metrics"
	"spnet/internal/routing"
	"spnet/internal/stats"
	"spnet/internal/transfer"
	"spnet/internal/trust"
)

// Options configure a Node. The zero value is usable.
type Options struct {
	// TTL stamped on queries this node originates or accepts from clients
	// (default 7, the Table 1 default).
	TTL int
	// MaxClients bounds the cluster size (default 100).
	MaxClients int
	// MaxPeers bounds the overlay outdegree (default 30).
	MaxPeers int
	// DialTimeout bounds connection setup: ConnectPeer's TCP dial, and the
	// hello exchange on both the accept and the dial path (default 10s).
	DialTimeout time.Duration
	// WriteTimeout bounds each message write (default 30s).
	WriteTimeout time.Duration
	// HeartbeatInterval is how often the node pings its overlay neighbors
	// (default 5s; negative disables heartbeats).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a peer link may stay silent before the
	// node declares it dead and closes it (default 3×HeartbeatInterval).
	HeartbeatTimeout time.Duration
	// MaxInflight bounds queued-plus-executing queries per connection:
	// excess queries are answered with Busy instead of queued (default 64).
	MaxInflight int
	// QueueDepth bounds the node-wide pending-query dispatch queue; when it
	// is full, arriving queries are shed with a Busy response (default 1024).
	QueueDepth int
	// QueryWorkers is how many dispatcher goroutines drain the query queue
	// (default 4). Readers never execute queries inline, so a slow search
	// can't stall a connection's read loop.
	QueryWorkers int
	// ClientQueryRate token-buckets queries per client connection, in
	// queries per second; over-rate queries are refused with Busy
	// (default 0: unlimited).
	ClientQueryRate float64
	// ClientQueryBurst is the token bucket's capacity (default
	// max(1, ClientQueryRate)).
	ClientQueryBurst float64
	// FrameTimeout bounds how long a frame may take to finish arriving once
	// its first byte is in: a peer that stalls mid-message is disconnected
	// instead of hanging its reader goroutine forever (default 30s;
	// negative disables).
	FrameTimeout time.Duration
	// DrainTimeout is how long Close lets already-queued queries finish
	// before connections are torn down (default 2s; negative disables the
	// drain).
	DrainTimeout time.Duration
	// Routing selects the query-forwarding strategy over peer links (nil:
	// flood, the paper's protocol). Content-aware strategies exchange
	// Summary messages with neighbors automatically.
	Routing routing.Strategy
	// RoutingSeed seeds the strategy's randomness (randomwalk's walker
	// picks, learned's exploration). A fixed seed gives a fixed decision
	// sequence for a fixed message order.
	RoutingSeed uint64
	// Trust enables the reputation defenses: QueryHits are validated before
	// they are relayed or credited to the routing strategy, each neighbor
	// link carries a beta-posterior reliability score (exported as
	// spnet_peer_reputation), and overlay admission is weighted by the
	// sending link's score — see TrustPeerShare.
	Trust bool
	// TrustPeerShare is the fraction of QueueDepth that overlay-forwarded
	// queries may collectively occupy when Trust is on; the share usable by
	// one link scales with its reliability score. Together with the
	// client-side remainder this reserves queue slots between overlay and
	// local-client traffic (default 0.5).
	TrustPeerShare float64
	// Content, when set, makes this node a transfer source: the store's
	// catalog is indexed beside client collections (queries hit it and the
	// QueryHit carries this node's own listen address as the dialable
	// responder), and link.Transfer links are served chunks from it.
	Content *transfer.Store
	// MaxTransfers bounds concurrent transfer links, a capacity budget of
	// their own so downloads can't crowd out clients or peers (default 16).
	MaxTransfers int
	// TransferRate caps the node's aggregate served content bytes/sec across
	// all transfer links, so transfers can't starve the query plane of the
	// machine either (default 0: unlimited).
	TransferRate float64
	// Misbehave, when set, makes this node an adversary for robustness
	// experiments: it freeloads, forges hits, and Busy-lies per the
	// configured probabilities. Test hook; nil in production.
	Misbehave *MisbehaveOptions
	// Wrap, when set, wraps every accepted connection — the hook
	// internal/faults uses to inject message drop, delay, truncation,
	// resets and partitions.
	Wrap func(net.Conn) net.Conn
	// Dial, when set, replaces the dialer used by ConnectPeer (same fault
	// injection hook, outbound side).
	Dial link.Dialer
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

const (
	// routeTTL is how long reverse-path routing state is kept.
	routeTTL = 60 * time.Second
	// trustFloor is the minimum admission weight a fully distrusted link
	// keeps, so a misjudged peer can still earn its reputation back.
	trustFloor = 0.1
)

func (o *Options) setDefaults() {
	if o.TTL <= 0 {
		o.TTL = 7
	}
	if o.MaxClients <= 0 {
		o.MaxClients = 100
	}
	if o.MaxPeers <= 0 {
		o.MaxPeers = 30
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 5 * time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 3 * o.HeartbeatInterval
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.QueryWorkers <= 0 {
		o.QueryWorkers = 4
	}
	if o.ClientQueryBurst <= 0 {
		o.ClientQueryBurst = o.ClientQueryRate
		if o.ClientQueryBurst < 1 {
			o.ClientQueryBurst = 1
		}
	}
	if o.FrameTimeout == 0 {
		o.FrameTimeout = 30 * time.Second
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 2 * time.Second
	}
	if o.Content == nil {
		o.MaxTransfers = 0 // nothing to serve: every transfer link is refused
	} else if o.MaxTransfers <= 0 {
		o.MaxTransfers = 16
	}
	if o.TrustPeerShare <= 0 || o.TrustPeerShare > 1 {
		o.TrustPeerShare = 0.5
	}
	if o.Wrap == nil {
		o.Wrap = func(c net.Conn) net.Conn { return c }
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Node is one super-peer.
type Node struct {
	opts Options
	ln   net.Listener

	mu      sync.Mutex
	index   *index.Index
	clients map[int]*conn // owner id -> client connection
	guids   map[int]gnutella.GUID
	peers   map[*conn]struct{}
	conns   map[*conn]struct{} // every live connection, for shutdown
	routes  map[gnutella.GUID]*routeEntry
	nextOwn int
	closed  bool

	// Routing strategy state: route never changes after NewNode; rstate
	// locks internally. nextPeerID (guarded by mu) hands each peer link a
	// stable id in rstate's namespace. sumMu serializes summary
	// recomputation so adverts can never be sent out of order.
	route          routing.Strategy
	routeLearns    bool
	routeSummaries bool
	rstate         *routing.NodeState
	nextPeerID     int
	sumMu          sync.Mutex

	// Admission counts per role, maintained at admit/unregister time. The
	// clients/peers maps are only populated later (on Join / in runPeer), so
	// capacity must be enforced on these counters to make check-and-admit
	// atomic — otherwise concurrent handshakes slip past MaxClients/MaxPeers.
	nRole [numRoles]int

	// xferLimit paces served transfer bytes (Options.TransferRate); nil when
	// the node serves no content.
	xferLimit *bucket

	// Query dispatch: readers enqueue, workers execute. The queue is the
	// overload-protection buffer between accept rate and processing rate;
	// when it (or a connection's inflight cap) overflows, queries are shed
	// with counted Busy responses instead of silent drops or read-loop
	// stalls.
	queue       chan queryTask
	qwg         sync.WaitGroup
	workersOnce sync.Once

	// metrics is the node's observability surface: every byte and message is
	// attributed to the Table 2 load taxonomy, and the overload ladder's
	// outcomes are counted by reason and source class. Reported by Stats and
	// exposed over HTTP via metrics.Handler(node.Metrics().Registry()).
	metrics *metrics.NodeMetrics
	// framing is every link's frame bound (FrameTimeout) and meter.
	framing link.Framing

	// Control-plane state (guarded by mu). nodeID and telemetryAddr identify
	// this node to a fleet controller (SetIdentity); ctlEpoch is the highest
	// directive epoch applied — the idempotency watermark every Register
	// announces and every Directive is checked against.
	nodeID        string
	telemetryAddr string
	ctlEpoch      uint64

	// book scores each peer link's reliability from observed behavior
	// (genuine hits vs forged/unsolicited ones vs Busy refusals); nil unless
	// Options.Trust. peerQueued counts overlay queries queued or executing,
	// for the trust-aware admission share. mis is the adversary machinery,
	// nil on honest nodes.
	book       *trust.Book
	peerQueued atomic.Int32
	mis        *misbehaveState

	wg   sync.WaitGroup
	stop chan struct{}
}

// queryTask is one query waiting for a dispatch worker; the link's role
// says whether it is a client's query or a peer's copy.
type queryTask struct {
	c *conn
	q *gnutella.Query
}

// NewNode creates a node; call Listen to start serving.
func NewNode(opts Options) *Node {
	opts.setDefaults()
	n := &Node{
		opts:    opts,
		index:   index.New(),
		clients: make(map[int]*conn),
		guids:   make(map[int]gnutella.GUID),
		peers:   make(map[*conn]struct{}),
		conns:   make(map[*conn]struct{}),
		routes:  make(map[gnutella.GUID]*routeEntry),
		queue:   make(chan queryTask, opts.QueueDepth),
		metrics: metrics.NewNodeMetrics(),
		mis:     newMisbehaveState(opts.Misbehave),
		stop:    make(chan struct{}),
	}
	n.opts.Dial = opts.Dial.Metered(n.metrics)
	n.framing = link.Framing{Bound: opts.FrameTimeout, Meter: n.meterMessage}
	if opts.Trust {
		n.book = trust.NewBook()
	}
	n.route = opts.Routing
	if n.route == nil {
		n.route = routing.NewFlood()
	}
	n.routeLearns = routing.Learns(n.route)
	n.routeSummaries = routing.UsesSummaries(n.route)
	n.rstate = routing.NewNodeState(stats.NewRNG(opts.RoutingSeed))
	n.metrics.InitForwarded(n.route.Name())
	if opts.Content != nil {
		n.indexStore(opts.Content)
		burst := 2 * float64(opts.Content.ChunkSize())
		n.xferLimit = &bucket{rate: opts.TransferRate, burst: burst}
	}
	return n
}

// Metrics returns the node's metric set; serve its registry with
// metrics.Handler for the /metrics, /debug/vars and /debug/pprof surface.
func (n *Node) Metrics() *metrics.NodeMetrics { return n.metrics }

// startWorkers launches the query dispatch pool once, from whichever entry
// point (Listen or ConnectPeer) first makes the node reachable.
func (n *Node) startWorkers() {
	n.workersOnce.Do(func() {
		n.qwg.Add(n.opts.QueryWorkers)
		for i := 0; i < n.opts.QueryWorkers; i++ {
			go n.queryWorker()
		}
	})
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting clients and
// peers.
func (n *Node) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("p2p: listen %s: %w", addr, err)
	}
	n.ln = ln
	n.startWorkers()
	n.wg.Add(2)
	go n.acceptLoop()
	go n.pruneLoop()
	if n.opts.HeartbeatInterval > 0 {
		n.wg.Add(1)
		go n.heartbeatLoop()
	}
	return nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Close shuts the node down gracefully: it stops accepting work, drains
// already-queued queries for up to DrainTimeout so inflight searches get
// their responses, then tears connections down and waits for its goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	close(n.stop)
	if n.ln != nil {
		n.ln.Close()
	}
	if n.opts.DrainTimeout > 0 {
		drained := make(chan struct{})
		go func() {
			n.qwg.Wait()
			close(drained)
		}()
		if link.Sleep(n.opts.DrainTimeout, drained) {
			n.opts.Logf("p2p: drain timeout %v elapsed with queries pending", n.opts.DrainTimeout)
		}
	}
	n.deregisterFromControllers(conns)
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	n.qwg.Wait()
	return nil
}

// Stats reports the node's current shape and overload accounting.
type Stats struct {
	Clients      int
	Peers        int
	IndexedFiles int
	// QueriesHandled counts queries dispatched to completion.
	QueriesHandled int64
	// QueriesShed counts queries answered with Busy because the dispatch
	// queue or a connection's inflight cap was full, across both source
	// classes: QueriesShedClient + QueriesShedPeer.
	QueriesShed int64
	// QueriesShedClient counts shed queries that arrived on local client
	// legs; QueriesShedPeer counts shed queries forwarded by neighbor
	// super-peers. The split tells an operator whether overload pressure is
	// the node's own cluster or the overlay. Neither includes rate-limited
	// queries.
	QueriesShedClient int64
	QueriesShedPeer   int64
	// QueriesShedAdmission counts overlay queries refused by trust-aware
	// admission — the reputation-weighted slice of QueriesShedPeer.
	QueriesShedAdmission int64
	// RateLimited counts client queries refused with Busy by the
	// per-client token bucket (always client-sourced: peers are not
	// token-bucketed).
	RateLimited int64
	// BusyReceived counts Busy frames received from overloaded peers.
	BusyReceived int64
	// HitsUnsolicited counts QueryHits dropped because no outstanding query
	// matched their GUID; HitsForged counts hits dropped by trust validation
	// (no dialable responder behind any claimed result).
	HitsUnsolicited int64
	HitsForged      int64
}

// Stats returns a snapshot of the node's state.
func (n *Node) Stats() Stats {
	m := n.metrics
	rateLimited := m.Shed[metrics.ShedRateLimit][metrics.SourceClient].Value()
	shedClient := m.ShedTotal(metrics.SourceClient) - rateLimited
	shedPeer := m.ShedTotal(metrics.SourcePeer)
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{
		Clients:              len(n.clients),
		Peers:                len(n.peers),
		IndexedFiles:         n.index.NumDocs(),
		QueriesHandled:       m.QueriesHandled.Value(),
		QueriesShed:          shedClient + shedPeer,
		QueriesShedClient:    shedClient,
		QueriesShedPeer:      shedPeer,
		QueriesShedAdmission: m.Shed[metrics.ShedAdmission][metrics.SourcePeer].Value(),
		RateLimited:          rateLimited,
		BusyReceived:         m.BusyReceived.Value(),
		HitsUnsolicited:      m.HitsUnsolicited.Value(),
		HitsForged:           m.HitsForged.Value(),
	}
}

// PeerScores snapshots the node's reputation view of its overlay links,
// keyed by peer link id. Nil when Options.Trust is off.
func (n *Node) PeerScores() map[int]float64 {
	if n.book == nil {
		return nil
	}
	return n.book.Scores()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serve(c)
		}()
	}
}

// role is what a connection is to the node, named by its hello line.
type role uint8

const (
	roleClient role = iota
	rolePeer
	roleControl
	roleTransfer
	numRoles
)

// roles is the accept path's table: the hello line that selects each role
// and the loop that serves a connection once it is admitted.
var roles = [numRoles]struct {
	hello string
	run   func(*Node, *conn)
}{
	roleClient:   {link.Client, (*Node).runClient},
	rolePeer:     {link.Peer, (*Node).runPeer},
	roleControl:  {link.Control, (*Node).runControl},
	roleTransfer: {link.Transfer, (*Node).runTransfer},
}

// serve performs the acceptor side of the handshake — hello, admit, reply —
// and runs the connection's role loop.
func (n *Node) serve(c net.Conn) {
	c = n.opts.Wrap(c)
	c = metrics.NewMeteredConn(c, n.metrics.ConnBytes[metrics.DirIn], n.metrics.ConnBytes[metrics.DirOut])
	hello, lc, err := link.ReadHello(c, n.opts.DialTimeout, n.framing)
	r := role(0)
	for err == nil && r < numRoles && roles[r].hello != hello {
		r++
	}
	if err != nil || r == numRoles {
		n.opts.Logf("p2p: rejecting hello %q from %s: %v", hello, c.RemoteAddr(), err)
		c.Close()
		return
	}
	cc := newConn(n, lc, r)
	defer n.unregister(cc) // a no-op unless admitted
	admitted := n.admit(cc)
	if err := lc.Reply(admitted); err != nil || !admitted {
		c.Close()
		return
	}
	roles[r].run(n, cc)
}

// capacityLocked is a role's admission budget. Control links sit outside
// every budget — a full cluster must still be reachable by its controller —
// and transfer links have their own, so downloads can never crowd queries
// out of the node (or vice versa). Read under mu: directives change
// MaxClients.
func (n *Node) capacityLocked(r role) int {
	switch r {
	case roleClient:
		return n.opts.MaxClients
	case rolePeer:
		return n.opts.MaxPeers
	case roleTransfer:
		return n.opts.MaxTransfers
	}
	return math.MaxInt
}

// admit adds a connection to the tracked set, enforcing its role's capacity.
// The check and the reservation happen under one lock acquisition, so two
// concurrent handshakes can never both slip under the limit.
func (n *Node) admit(c *conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.nRole[c.role] >= n.capacityLocked(c.role) {
		return false
	}
	n.nRole[c.role]++
	n.conns[c] = struct{}{}
	n.metrics.ConnsOpen.Inc()
	return true
}

func (n *Node) unregister(c *conn) {
	n.mu.Lock()
	if _, ok := n.conns[c]; ok {
		delete(n.conns, c)
		n.nRole[c.role]--
		n.metrics.ConnsOpen.Dec()
	}
	n.mu.Unlock()
}

// ConnectPeer dials another super-peer and adds it as an overlay neighbor.
func (n *Node) ConnectPeer(addr string) error {
	lc, err := n.opts.Dial.Open(addr, link.Peer, n.opts.DialTimeout, n.framing)
	if err != nil {
		return fmt.Errorf("p2p: connecting peer: %w", err)
	}
	pc := newConn(n, lc, rolePeer)
	if !n.admit(pc) {
		lc.Close()
		return errClosed
	}
	n.startWorkers()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer n.unregister(pc)
		n.runPeer(pc)
	}()
	return nil
}

// heartbeatLoop pings every overlay neighbor each HeartbeatInterval and
// closes links whose last frame is older than HeartbeatTimeout — the
// dead-peer detection that lets the overlay shed crashed or partitioned
// super-peers instead of blocking on them.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	link.Every(n.stop, n.opts.HeartbeatInterval, func(now time.Time) {
		n.mu.Lock()
		peers := n.peerListLocked(nil)
		n.mu.Unlock()
		for _, p := range peers {
			if silent := now.Sub(p.LastFrame()); silent > n.opts.HeartbeatTimeout {
				n.opts.Logf("p2p: peer %s silent %v > %v, declaring dead",
					p.RemoteAddr(), silent.Round(time.Millisecond), n.opts.HeartbeatTimeout)
				p.Close()
				continue
			}
			if err := p.send(&gnutella.Ping{ID: gnutella.NewGUID(), TTL: 1}); err != nil {
				n.opts.Logf("p2p: heartbeat to %s: %v", p.RemoteAddr(), err)
				p.Close()
			}
		}
	})
}

// enqueueQuery admits one arriving query into the dispatch queue, applying
// the overload-protection ladder in order: per-client token bucket, per
// connection inflight cap, then the node-wide queue bound. Every refusal is
// an explicit, counted Busy response to the sender — never a silent drop —
// and admission never blocks the connection's read loop.
func (n *Node) enqueueQuery(c *conn, q *gnutella.Query) {
	peer := c.role == rolePeer
	src := metrics.SourceClient
	if peer {
		src = metrics.SourcePeer
	}
	if !peer && !c.queries.take() {
		n.metrics.Shed[metrics.ShedRateLimit][src].Inc()
		n.sendBusy(c, q)
		return
	}
	if int(c.inflight.Load()) >= n.opts.MaxInflight {
		n.metrics.Shed[metrics.ShedInflight][src].Inc()
		n.sendBusy(c, q)
		return
	}
	if peer && n.book != nil {
		// Trust-aware admission: overlay queries may collectively occupy at
		// most a TrustPeerShare slice of the queue — the rest stays reserved
		// for local clients — and a link's usable slice scales with its
		// reliability score, so a distrusted neighbor can flood us out of at
		// most trustFloor of the overlay share.
		w := n.book.Weight(c.peerID, trustFloor)
		limit := max(1, int(w*n.opts.TrustPeerShare*float64(n.opts.QueueDepth)))
		if int(n.peerQueued.Load()) >= limit {
			n.metrics.Shed[metrics.ShedAdmission][src].Inc()
			n.sendBusy(c, q)
			return
		}
	}
	c.inflight.Add(1)
	if peer {
		n.peerQueued.Add(1)
	}
	select {
	case n.queue <- queryTask{c: c, q: q}:
	case <-n.stop:
		n.release(c) // shutting down; the connection dies with us
	default:
		n.release(c)
		n.metrics.Shed[metrics.ShedQueue][src].Inc()
		n.sendBusy(c, q)
	}
}

// release gives back the admission slots a query held: its link's inflight
// count and, for a peer's copy, its share of the overlay's queue slice.
func (n *Node) release(c *conn) {
	c.inflight.Add(-1)
	if c.role == rolePeer {
		n.peerQueued.Add(-1)
	}
}

// sendBusy answers a shed query over its arrival link.
func (n *Node) sendBusy(c *conn, q *gnutella.Query) {
	c.reply(&gnutella.Busy{ID: q.ID, TTL: 1, Hops: q.Hops}, false)
}

// queryWorker drains the dispatch queue. On shutdown it keeps draining until
// the queue is empty — the graceful half of Close's drain window — and then
// exits.
func (n *Node) queryWorker() {
	defer n.qwg.Done()
	for {
		select {
		case t := <-n.queue:
			n.dispatch(t)
		case <-n.stop:
			for {
				select {
				case t := <-n.queue:
					n.dispatch(t)
				default:
					return
				}
			}
		}
	}
}

// dispatch executes one admitted query.
func (n *Node) dispatch(t queryTask) {
	defer n.release(t.c)
	start := time.Now()
	if t.c.role == rolePeer {
		n.relay(t.c, t.q)
	} else {
		n.handleClientQuery(t.c, t.q)
	}
	n.metrics.QueryService.Observe(time.Since(start).Seconds())
	n.metrics.QueriesHandled.Inc()
}

// pruneLoop expires stale reverse-path routes. A search of the node's own
// keeps its route until its window closes, and then deletes it itself.
func (n *Node) pruneLoop() {
	defer n.wg.Done()
	link.Every(n.stop, routeTTL/2, func(now time.Time) {
		cutoff := now.Add(-routeTTL)
		n.mu.Lock()
		for id, rt := range n.routes {
			if _, own := rt.back.(*ownSearch); rt.at.Before(cutoff) && !own {
				delete(n.routes, id)
			}
		}
		n.mu.Unlock()
	})
}

// errClosed reports operations on a closed node.
var errClosed = errors.New("p2p: node closed")
