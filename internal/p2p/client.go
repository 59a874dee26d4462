package p2p

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/metrics"
	"spnet/internal/stats"
	"spnet/internal/trust"
)

// NeighborStatus reports query delivery to one overlay neighbor during a
// search flood: Err is nil when the query left for that link.
type NeighborStatus struct {
	Addr string
	Err  error
}

// SearchOutcome is the detailed result of one search, a node's own or a
// client's: the collected results plus how many Busy (load-shed) signals
// came back for the query, so callers can distinguish "no matches" from
// "the network refused some of the work", and for a node's own flood the
// per-neighbor delivery accounting, so a search over a degraded overlay
// returns what it could reach instead of failing whole. SearchDetailed
// returns one even with an error: what was collected before it.
type SearchOutcome struct {
	Results []SearchResult
	// Busy counts load-shed (Busy) signals routed back for this query:
	// overloaded super-peers that refused it instead of answering.
	Busy int
	// Neighbors records, per overlay link, whether a node's own flood
	// reached it; nil for a client's search.
	Neighbors []NeighborStatus
}

// Failed counts neighbors the flood could not be delivered to.
func (o *SearchOutcome) Failed() int {
	return count(o.Neighbors, func(s NeighborStatus) bool { return s.Err != nil })
}

// Genuine counts results backed by a dialable owner address — the subset a
// forged hit cannot fake. Under Trust this is what a client scores its
// partner on; trust-oblivious callers still see forged results in Results.
func (o *SearchOutcome) Genuine() int { return count(o.Results, SearchResult.Genuine) }

func count[T any](xs []T, keep func(T) bool) int {
	n := 0
	for _, x := range xs {
		if keep(x) {
			n++
		}
	}
	return n
}

// SearchResult is one matching file, with the owning client's address.
type SearchResult struct {
	Title     string
	FileIndex uint32
	OwnerGUID gnutella.GUID
	OwnerIP   [4]byte
	OwnerPort uint16
	Hops      int
}

// Genuine reports whether a dialable owner address backs the result — what
// a forged hit cannot fake.
func (r SearchResult) Genuine() bool { return r.OwnerPort != 0 }

func hitResults(h *gnutella.QueryHit) []SearchResult {
	out := make([]SearchResult, 0, len(h.Results))
	for _, r := range h.Results {
		sr := SearchResult{
			Title:     r.Title,
			FileIndex: r.FileIndex,
			Hops:      int(h.Hops),
		}
		if int(r.AddrRef) < len(h.Responders) {
			resp := h.Responders[r.AddrRef]
			sr.OwnerGUID = resp.ClientGUID
			sr.OwnerIP = resp.IP
			sr.OwnerPort = resp.Port
		}
		out = append(out, sr)
	}
	return out
}

// SharedFile is one file a client shares.
type SharedFile struct {
	Index uint32
	Size  uint32
	Title string
}

// EventType classifies client connection-lifecycle events.
type EventType int

// Client lifecycle events.
const (
	// EventConnLost fires when the live connection is detected dead.
	EventConnLost EventType = iota
	// EventBackoff fires before a reconnect attempt sleeps.
	EventBackoff
	// EventDialFailed fires when one reconnect attempt fails.
	EventDialFailed
	// EventReconnected fires when a connection to a (possibly different)
	// super-peer is established.
	EventReconnected
	// EventRejoined fires after the collection metadata has been re-shipped
	// to the new super-peer.
	EventRejoined
	// EventGaveUp fires when MaxAttempts reconnect attempts all failed.
	EventGaveUp
)

func (t EventType) String() string {
	switch t {
	case EventConnLost:
		return "conn-lost"
	case EventBackoff:
		return "backoff"
	case EventDialFailed:
		return "dial-failed"
	case EventReconnected:
		return "reconnected"
	case EventRejoined:
		return "rejoined"
	case EventGaveUp:
		return "gave-up"
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// Event is one observation from the client's failover machinery.
type Event struct {
	Type    EventType
	Addr    string
	Attempt int
	Delay   time.Duration
	Err     error
}

// DialOptions configure a client connection, including the k-redundancy
// failover the paper's Section 3.2 motivates: a ranked list of redundant
// partner super-peers, reconnect backoff, and an optional heartbeat
// supervisor.
type DialOptions struct {
	// Addrs is the ranked list of partner super-peer addresses; the client
	// connects to the first reachable one and fails over down (and around)
	// the list when its super-peer dies.
	Addrs []string
	// DialTimeout bounds each TCP dial and, separately, the hello exchange
	// that follows it (default 10s).
	DialTimeout time.Duration
	// Backoff shapes the reconnect delays (default 200ms..5s).
	Backoff link.Backoff
	// MaxAttempts bounds one failover cycle's reconnect attempts across the
	// ranked list (default 8).
	MaxAttempts int
	// HeartbeatInterval is the supervisor's ping period: a background
	// watchdog pings the super-peer and drives reconnection the moment the
	// link dies, without waiting for the next user operation (0 disables
	// the supervisor; faults still trigger reconnection on use).
	HeartbeatInterval time.Duration
	// Seed drives the jitter stream (fixed seed → fixed delays).
	Seed uint64
	// Trust enables reputation-ranked partner selection: each search scores
	// the current super-peer on whether it produced genuine results (results
	// backed by a dialable owner address), refusals count against it, and
	// failover walks the ranked list in reliability-score order instead of
	// list order. When the best rival's score exceeds the current partner's
	// by 0.15 (trustMargin) the client re-homes proactively.
	Trust bool
	// TrustPriors, when non-empty, seeds the reputation book with initial
	// reliability views aligned index-for-index with Addrs — the noisy
	// initial views of the reliability model (values clamped to [0, 1]).
	TrustPriors []float64
	// Metrics, when set, meters the client's traffic: raw socket bytes and
	// per-message load-taxonomy attribution land in this metric set, under
	// the same names super-peers use.
	Metrics *metrics.NodeMetrics
	// Dial, when set, replaces the dialer (fault-injection hook).
	Dial link.Dialer
	// OnEvent, when set, observes failover progress. Called synchronously
	// from client goroutines; keep it fast.
	OnEvent func(Event)
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

func (o *DialOptions) setDefaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	o.Backoff = o.Backoff.Or(link.Backoff{Initial: 200 * time.Millisecond, Max: 5 * time.Second})
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	o.Dial = o.Dial.Metered(o.Metrics)
	if o.OnEvent == nil {
		o.OnEvent = func(Event) {}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Client is a client-role connection to a (virtual) super-peer. It remembers
// its shared collection and, when its super-peer dies, reconnects to the
// next partner in the ranked list with exponential backoff and re-joins, so
// the replacement's index is reconciled automatically.
type Client struct {
	opts    DialOptions
	guid    gnutella.GUID
	rng     *stats.RNG   // jitter stream; used only under recMu
	framing link.Framing // meters every frame into DialOptions.Metrics

	// book scores each ranked super-peer's reliability (keyed by index into
	// opts.Addrs); nil unless DialOptions.Trust. The book locks internally.
	book *trust.Book

	mu      sync.Mutex // guards conn/files/addrIdx/broken/closed
	conn    *link.Conn
	files   []SharedFile
	addrIdx int // index into opts.Addrs of the live super-peer
	broken  bool
	closed  bool

	recMu      sync.Mutex // serializes failover cycles
	reconnects int        // guarded by mu

	busy atomic.Int64 // Busy responses observed across all searches

	stop chan struct{}
	wg   sync.WaitGroup
}

// writeTimeout bounds each message write.
const writeTimeout = 30 * time.Second

// trustMargin is how far (in score) a rival partner must lead before a
// trusting client re-homes to it: the hysteresis that prevents flapping
// between comparable partners.
const trustMargin = 0.15

// trustPriorWeight is the pseudo-count weight of DialOptions.TrustPriors —
// strong enough to steer initial partner choice, weak enough that a few
// contradicting observations override a wrong view.
const trustPriorWeight = 4

// rankedOrder returns indices into opts.Addrs in preference order:
// reputation-score order under Trust, list order otherwise.
func (cl *Client) rankedOrder() []int {
	ids := make([]int, len(cl.opts.Addrs))
	for i := range ids {
		ids[i] = i
	}
	if cl.book != nil {
		cl.book.Rank(ids)
	}
	return ids
}

// errClientClosed reports operations on a closed client.
var errClientClosed = errors.New("p2p: client closed")

// ErrNoSuperPeer reports that a failover cycle exhausted every ranked
// super-peer without reconnecting.
var ErrNoSuperPeer = errors.New("p2p: no reachable super-peer")

// DialClient connects to a super-peer, performs the handshake, and joins
// with the given collection (the metadata shipment of Section 3.2).
func DialClient(addr string, files []SharedFile) (*Client, error) {
	return DialClientOptions(DialOptions{Addrs: []string{addr}}, files)
}

// DialClientOptions connects to the first reachable super-peer in the
// ranked list and joins with the given collection. With more than one
// address (the paper's k-redundant partners) the client fails over
// automatically when its super-peer dies.
func DialClientOptions(opts DialOptions, files []SharedFile) (*Client, error) {
	if len(opts.Addrs) == 0 {
		return nil, errors.New("p2p: DialOptions.Addrs is empty")
	}
	opts.setDefaults()
	cl := &Client{
		opts:    opts,
		guid:    gnutella.NewGUID(),
		rng:     stats.NewRNG(opts.Seed),
		framing: link.Framing{Meter: link.LoadMeter(opts.Metrics)},
		files:   append([]SharedFile(nil), files...),
		stop:    make(chan struct{}),
	}
	if opts.Trust {
		cl.book = trust.NewBook()
		for i, rel := range opts.TrustPriors {
			if i >= len(opts.Addrs) {
				break
			}
			cl.book.SetPrior(i, rel, trustPriorWeight)
		}
	}
	var firstErr error
	for _, i := range cl.rankedOrder() {
		c, err := opts.Dial.Open(opts.Addrs[i], link.Client, opts.DialTimeout, cl.framing)
		if err == nil {
			cl.conn, cl.addrIdx = c, i
			break
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if cl.conn == nil {
		return nil, firstErr
	}
	if err := cl.conn.Send(cl.joinMsg(), writeTimeout); err != nil {
		cl.conn.Close()
		return nil, err
	}
	if opts.HeartbeatInterval > 0 {
		cl.wg.Add(1)
		go cl.watchdog()
	}
	return cl, nil
}

// joinMsg builds the Join for the current collection. Callers hold cl.mu or
// have exclusive access.
func (cl *Client) joinMsg() *gnutella.Join {
	j := &gnutella.Join{ID: cl.guid}
	for _, f := range cl.files {
		j.Files = append(j.Files, gnutella.MetadataRecord{
			FileIndex: f.Index, FileSize: f.Size, Title: f.Title,
		})
	}
	return j
}

// markBroken flags the given connection dead (if it is still the live one)
// so the next operation — or the watchdog — reconnects.
func (cl *Client) markBroken(c *link.Conn, err error) {
	cl.mu.Lock()
	fire := false
	if cl.conn == c && !cl.broken && !cl.closed {
		cl.broken = true
		fire = true
		c.Close()
	}
	cl.mu.Unlock()
	if fire {
		cl.opts.Logf("p2p: connection to super-peer lost: %v", err)
		cl.opts.OnEvent(Event{Type: EventConnLost, Err: err})
	}
}

// liveConn returns the current connection, running a failover cycle first if
// the connection is known dead.
func (cl *Client) liveConn() (*link.Conn, error) {
	cl.mu.Lock()
	broken := cl.broken && !cl.closed
	cl.mu.Unlock()
	if broken {
		if err := cl.failover(); err != nil {
			return nil, err
		}
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, errClientClosed
	}
	return cl.conn, nil
}

// failover is the supervised reconnect loop: starting from the partner
// ranked after the dead one, it walks the ranked super-peer list with
// exponential backoff and jitter, re-handshakes, re-joins with the current
// collection (reconciling the replacement partner's index), and installs the
// new connection. Under Trust the walk follows reputation-score order (with
// the partner just left demoted to the end of the cycle) instead of list
// order. Cycles are serialized; a second caller finding the connection
// already repaired returns immediately.
func (cl *Client) failover() error {
	cl.recMu.Lock()
	defer cl.recMu.Unlock()

	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return errClientClosed
	}
	if !cl.broken {
		cl.mu.Unlock()
		return nil // repaired by a concurrent cycle
	}
	fromIdx := cl.addrIdx
	cl.mu.Unlock()

	var order []int
	if cl.book != nil {
		order = cl.rankedOrder()
		for i, idx := range order {
			if idx == fromIdx {
				order = append(append(order[:i:i], order[i+1:]...), fromIdx)
				break
			}
		}
	}

	var lastErr error
	for attempt := 0; attempt < cl.opts.MaxAttempts; attempt++ {
		next := (fromIdx + 1 + attempt) % len(cl.opts.Addrs)
		if order != nil {
			next = order[attempt%len(order)]
		}
		addr := cl.opts.Addrs[next]
		if d := cl.opts.Backoff.Delay(attempt, cl.rng); d > 0 {
			cl.opts.OnEvent(Event{Type: EventBackoff, Addr: addr, Attempt: attempt, Delay: d})
			if !link.Sleep(d, cl.stop) {
				return errClientClosed
			}
		}
		c, err := cl.opts.Dial.Open(addr, link.Client, cl.opts.DialTimeout, cl.framing)
		if err != nil {
			lastErr = err
			cl.opts.Logf("p2p: reconnect attempt %d to %s: %v", attempt, addr, err)
			cl.opts.OnEvent(Event{Type: EventDialFailed, Addr: addr, Attempt: attempt, Err: err})
			continue
		}

		cl.mu.Lock()
		if cl.closed {
			cl.mu.Unlock()
			c.Close()
			return errClientClosed
		}
		join := cl.joinMsg()
		cl.mu.Unlock()
		if err := c.Send(join, writeTimeout); err != nil {
			c.Close()
			lastErr = err
			cl.opts.OnEvent(Event{Type: EventDialFailed, Addr: addr, Attempt: attempt, Err: err})
			continue
		}

		cl.mu.Lock()
		cl.conn = c
		cl.addrIdx = next
		cl.broken = false
		cl.reconnects++
		cl.mu.Unlock()
		cl.opts.Logf("p2p: reconnected to super-peer %s (attempt %d)", addr, attempt)
		cl.opts.OnEvent(Event{Type: EventReconnected, Addr: addr, Attempt: attempt})
		cl.opts.OnEvent(Event{Type: EventRejoined, Addr: addr})
		return nil
	}
	err := fmt.Errorf("%w after %d attempts: %v", ErrNoSuperPeer, cl.opts.MaxAttempts, lastErr)
	cl.opts.OnEvent(Event{Type: EventGaveUp, Err: err})
	return err
}

// watchdog supervises the connection: it pings the super-peer every
// HeartbeatInterval and triggers failover as soon as the link dies, so
// recovery does not wait for the next user operation. The next Search's
// Recv absorbs the Pong replies.
func (cl *Client) watchdog() {
	defer cl.wg.Done()
	link.Every(cl.stop, cl.opts.HeartbeatInterval, func(time.Time) {
		cl.mu.Lock()
		broken, c := cl.broken, cl.conn
		cl.mu.Unlock()
		if !broken {
			err := c.Send(&gnutella.Ping{ID: gnutella.NewGUID(), TTL: 1}, writeTimeout)
			if err == nil {
				return
			}
			cl.markBroken(c, err)
		}
		if err := cl.failover(); err != nil && !errors.Is(err, errClientClosed) {
			cl.opts.Logf("p2p: watchdog failover: %v", err)
		}
	})
}

// Rejoin replaces the client's collection at the super-peer.
func (cl *Client) Rejoin(files []SharedFile) error {
	cl.mu.Lock()
	cl.files = append(cl.files[:0], files...)
	cl.mu.Unlock()
	c, err := cl.liveConn()
	if err != nil {
		return err
	}
	cl.mu.Lock()
	j := cl.joinMsg()
	cl.mu.Unlock()
	if err := c.Send(j, writeTimeout); err != nil {
		cl.markBroken(c, err)
		return err
	}
	return nil
}

// Update notifies the super-peer of a single collection change, keeping the
// client's remembered collection in sync so a later failover re-joins with
// the post-update state.
func (cl *Client) Update(op gnutella.UpdateOp, f SharedFile) error {
	cl.mu.Lock()
	switch op {
	case gnutella.OpDelete:
		for i := range cl.files {
			if cl.files[i].Index == f.Index {
				cl.files = append(cl.files[:i], cl.files[i+1:]...)
				break
			}
		}
	case gnutella.OpInsert, gnutella.OpModify:
		replaced := false
		for i := range cl.files {
			if cl.files[i].Index == f.Index {
				cl.files[i] = f
				replaced = true
				break
			}
		}
		if !replaced {
			cl.files = append(cl.files, f)
		}
	}
	cl.mu.Unlock()

	c, err := cl.liveConn()
	if err != nil {
		return err
	}
	msg := &gnutella.Update{
		ID: cl.guid,
		Op: op,
		File: gnutella.MetadataRecord{
			FileIndex: f.Index, FileSize: f.Size, Title: f.Title,
		},
	}
	if err := c.Send(msg, writeTimeout); err != nil {
		cl.markBroken(c, err)
		return err
	}
	return nil
}

// Search submits a keyword query to the super-peer and collects results for
// the given window. "Clients submit queries to their super-peer and receive
// results from it" (Section 1).
//
// Search degrades gracefully: a connection failure mid-window returns the
// results collected so far together with the error, marks the connection
// dead, and the next operation (or the watchdog) fails over to the next
// ranked super-peer. Only a window that closes between frames keeps the
// connection (link.ErrIdle); any other read error retires it, so a stale
// deadline or a half-read frame can never poison subsequent calls.
func (cl *Client) Search(query string, window time.Duration) ([]SearchResult, error) {
	out, err := cl.SearchDetailed(query, window)
	return out.Results, err
}

// SearchDetailed is Search with overload accounting: Busy responses for the
// query are counted instead of silently skipped. The degradation semantics
// are identical to Search.
func (cl *Client) SearchDetailed(query string, window time.Duration) (*SearchOutcome, error) {
	out := &SearchOutcome{}
	c, err := cl.liveConn()
	if err != nil {
		return out, err
	}
	id := gnutella.NewGUID()
	if err := c.Send(&gnutella.Query{ID: id, TTL: 1, Text: query}, writeTimeout); err != nil {
		cl.markBroken(c, err)
		return out, err
	}
	deadline := time.Now().Add(window)
	for {
		msg, err := c.Recv(deadline)
		if errors.Is(err, link.ErrIdle) {
			// Window elapsed: results are complete.
			cl.observeSearch(c, out)
			return out, nil
		}
		if err != nil {
			cl.markBroken(c, err)
			return out, err
		}
		switch m := msg.(type) {
		case *gnutella.QueryHit:
			if m.ID == id {
				out.Results = append(out.Results, hitResults(m)...)
			}
		case *gnutella.Busy:
			if m.ID == id {
				out.Busy++
				cl.busy.Add(1)
			}
		}
	}
}

// observeSearch scores the current partner on one completed search window —
// good iff any genuine result came back, so Busy-lying, freeloading and
// forging all register as bad — then re-homes if a rival's reputation now
// leads by trustMargin. Skipped if the connection changed mid-search.
func (cl *Client) observeSearch(c *link.Conn, out *SearchOutcome) {
	if cl.book == nil {
		return
	}
	cl.mu.Lock()
	idx := cl.addrIdx
	live := cl.conn == c && !cl.broken && !cl.closed
	cl.mu.Unlock()
	if !live {
		return
	}
	cl.book.Observe(idx, out.Genuine() > 0)
	cl.maybeRehome()
}

// maybeRehome proactively switches to the best-reputed partner when the
// current one's score has fallen trustMargin behind it: the live connection
// is retired and a failover cycle — which under Trust walks partners in
// score order — installs the better one, re-joining so the replacement's
// index has this client's collection. A malicious partner keeps its TCP link
// perfectly healthy, so reputation, not connectivity, has to drive the exit.
func (cl *Client) maybeRehome() {
	cl.mu.Lock()
	cur := cl.addrIdx
	c := cl.conn
	busy := cl.broken || cl.closed
	cl.mu.Unlock()
	if busy {
		return
	}
	curScore := cl.book.Score(cur)
	best, bestScore := cur, curScore
	for i := range cl.opts.Addrs {
		if s := cl.book.Score(i); s > bestScore {
			best, bestScore = i, s
		}
	}
	if best == cur || bestScore < curScore+trustMargin {
		return
	}
	cl.opts.Logf("p2p: re-homing: partner %s score %.2f trails %s at %.2f",
		cl.opts.Addrs[cur], curScore, cl.opts.Addrs[best], bestScore)
	cl.markBroken(c, fmt.Errorf("p2p: partner reputation %.2f trails best %.2f", curScore, bestScore))
	if err := cl.failover(); err != nil && !errors.Is(err, errClientClosed) {
		cl.opts.Logf("p2p: re-homing failover: %v", err)
	}
}

// PartnerScores reports the client's reputation view of each ranked
// super-peer address. Nil when DialOptions.Trust is off.
func (cl *Client) PartnerScores() map[string]float64 {
	if cl.book == nil {
		return nil
	}
	out := make(map[string]float64, len(cl.opts.Addrs))
	for i, a := range cl.opts.Addrs {
		out[a] = cl.book.Score(i)
	}
	return out
}

// BusyResponses reports how many Busy (load-shed) signals the client has
// received across all searches.
func (cl *Client) BusyResponses() int64 {
	return cl.busy.Load()
}

// Reconnect forces a failover cycle if the connection is dead; it is a
// no-op on a healthy client.
func (cl *Client) Reconnect() error {
	_, err := cl.liveConn()
	return err
}

// Reconnects reports how many times the client has failed over.
func (cl *Client) Reconnects() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.reconnects
}

// SuperPeerAddr returns the address of the currently connected super-peer.
func (cl *Client) SuperPeerAddr() string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.opts.Addrs[cl.addrIdx]
}

// Close disconnects from the super-peer; the super-peer drops the client's
// metadata from its index.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	c := cl.conn
	cl.mu.Unlock()
	close(cl.stop)
	err := c.Close() // a Client always holds a Conn, live or broken
	cl.wg.Wait()
	return err
}
