package p2p

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/stats"
)

// recorder collects client failover events thread-safely.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recorder) byType(t EventType) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// fastBackoff keeps failover tests quick while still exercising the delay
// machinery.
var fastBackoff = link.Backoff{Initial: 20 * time.Millisecond, Max: 100 * time.Millisecond}

// fastJitter is link.Backoff's fixed ± spread, for recomputing an expected
// delay by hand.
const fastJitter = 0.2

// deadPort returns an address nothing listens on.
func deadPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestClientFailoverKillMidSearch is the acceptance scenario: a client's
// super-peer is killed mid-search; the client returns the partial results it
// has, then reconnects — with observed backoff — to a redundant partner
// super-peer (paper §3.2 k-redundancy), automatically re-joins so the
// partner's index holds its collection, and the next search succeeds.
// Deterministic under the fixed jitter seed.
func TestClientFailoverKillMidSearch(t *testing.T) {
	primary := startNode(t, Options{})
	partner := startNode(t, Options{})
	if err := primary.ConnectPeer(partner.Addr()); err != nil {
		t.Fatal(err)
	}

	// A provider on the partner cluster gives searches something to find.
	provider, err := DialClient(partner.Addr(), []SharedFile{
		{Index: 42, Title: "redundant lecture notes"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer provider.Close()
	waitFor(t, "provider indexed", func() bool { return partner.Stats().IndexedFiles == 1 })

	// The ranked list walks primary -> (dead address) -> partner, so the
	// failover cycle must burn one failed dial and one backoff sleep
	// before reaching the live partner.
	const seed = 42
	rec := &recorder{}
	cl, err := DialClientOptions(DialOptions{
		Addrs:   []string{primary.Addr(), deadPort(t), partner.Addr()},
		Backoff: fastBackoff,
		Seed:    seed,
		OnEvent: rec.record,
	}, []SharedFile{{Index: 7, Title: "failover classic"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "client joined primary", func() bool { return primary.Stats().IndexedFiles == 1 })

	// Kill the client's super-peer mid-search.
	go func() {
		time.Sleep(100 * time.Millisecond)
		primary.Close()
	}()
	partial, err := cl.Search("lecture", 2*time.Second)
	if err == nil {
		t.Fatal("search across a killed super-peer reported clean completion")
	}
	// Partial results, not a poisoned connection: the overlay hop may or
	// may not have delivered the hit before the crash; either way the
	// client keeps what arrived.
	t.Logf("mid-crash search returned %d results, err = %v", len(partial), err)

	// The next search triggers the supervised reconnect loop and succeeds
	// against the redundant partner.
	results, err := cl.Search("lecture", 500*time.Millisecond)
	if err != nil {
		t.Fatalf("post-failover search: %v", err)
	}
	if len(results) != 1 || results[0].FileIndex != 42 {
		t.Fatalf("post-failover results = %+v, want file 42", results)
	}
	if got := cl.SuperPeerAddr(); got != partner.Addr() {
		t.Errorf("client on %s, want the partner %s", got, partner.Addr())
	}
	if cl.Reconnects() != 1 {
		t.Errorf("reconnects = %d, want 1", cl.Reconnects())
	}

	// Backoff was observed, deterministically under the seed: attempt 0
	// (the dead address) is immediate, attempt 1 sleeps the seeded
	// jittered initial delay before reaching the partner.
	if got := rec.byType(EventConnLost); len(got) == 0 {
		t.Error("no conn-lost event")
	}
	if got := rec.byType(EventDialFailed); len(got) == 0 {
		t.Error("no dial-failed event for the dead address")
	}
	backoffs := rec.byType(EventBackoff)
	if len(backoffs) == 0 {
		t.Fatal("no backoff observed")
	}
	wantDelay := time.Duration(float64(fastBackoff.Initial) * (1 + fastJitter*(2*stats.NewRNG(seed).Float64()-1)))
	if backoffs[0].Delay != wantDelay {
		t.Errorf("first backoff delay = %v, want %v (deterministic under seed %d)", backoffs[0].Delay, wantDelay, seed)
	}
	if got := rec.byType(EventRejoined); len(got) != 1 || got[0].Addr != partner.Addr() || got[0].Attempt != 1 {
		t.Errorf("rejoined events = %+v, want one to %s on attempt 1", got, partner.Addr())
	}

	// Rejoin reconciled the index: the partner holds the provider's file
	// and the failed-over client's file, no duplicates or orphans.
	waitFor(t, "client collection on partner", func() bool { return partner.Stats().IndexedFiles == 2 })
	found, err := cl.Search("classic", 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0].FileIndex != 7 {
		t.Fatalf("own collection post-failover = %+v, want file 7", found)
	}
}

// TestRejoinAfterFailoverIndexConsistent is the satellite check that the
// super-peer's index matches the client's shared files after failover:
// updates made before the crash survive into the re-join, and updates made
// after land on the new super-peer.
func TestRejoinAfterFailoverIndexConsistent(t *testing.T) {
	a := startNode(t, Options{})
	b := startNode(t, Options{})

	rec := &recorder{}
	cl, err := DialClientOptions(DialOptions{
		Addrs:   []string{a.Addr(), b.Addr()},
		Backoff: fastBackoff,
		Seed:    1,
		OnEvent: rec.record,
	}, []SharedFile{
		{Index: 1, Title: "alpha song"},
		{Index: 2, Title: "beta song"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "joined", func() bool { return a.Stats().IndexedFiles == 2 })

	// A pre-crash update must survive into the post-failover rejoin.
	if err := cl.Update(gnutella.OpInsert, SharedFile{Index: 3, Title: "gamma song"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "insert indexed", func() bool { return a.Stats().IndexedFiles == 3 })

	a.Close()
	if _, err := cl.Search("song", 200*time.Millisecond); err == nil {
		t.Fatal("search against killed super-peer succeeded")
	}
	if err := cl.Reconnect(); err != nil {
		t.Fatalf("Reconnect: %v", err)
	}

	// Exactly the client's three files — no duplicates, no orphans.
	waitFor(t, "rejoined on b", func() bool { return b.Stats().IndexedFiles == 3 })
	for _, q := range []string{"alpha", "beta", "gamma"} {
		r, err := cl.Search(q, 150*time.Millisecond)
		if err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
		if len(r) != 1 {
			t.Errorf("search %q = %+v, want exactly 1 result", q, r)
		}
	}

	// Updates after failover apply to the new super-peer and the shadow
	// collection stays consistent for any further failover.
	if err := cl.Update(gnutella.OpDelete, SharedFile{Index: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delete applied", func() bool { return b.Stats().IndexedFiles == 2 })
	if err := cl.Rejoin([]SharedFile{{Index: 9, Title: "solo track"}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rejoin replaced collection", func() bool { return b.Stats().IndexedFiles == 1 })
	if r, _ := cl.Search("solo", 150*time.Millisecond); len(r) != 1 {
		t.Errorf("rejoined collection not searchable: %+v", r)
	}
}

// TestWatchdogReconnectsWithoutUserOps proves the supervised reconnect loop
// runs on its own: after the super-peer dies, the heartbeat watchdog detects
// the dead link and fails over with no user operation in flight.
func TestWatchdogReconnectsWithoutUserOps(t *testing.T) {
	a := startNode(t, Options{})
	b := startNode(t, Options{})
	cl, err := DialClientOptions(DialOptions{
		Addrs:             []string{a.Addr(), b.Addr()},
		Backoff:           fastBackoff,
		HeartbeatInterval: 30 * time.Millisecond,
		Seed:              3,
	}, []SharedFile{{Index: 5, Title: "watchdog anthem"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "joined a", func() bool { return a.Stats().IndexedFiles == 1 })

	a.Close()
	// No client call: the watchdog alone must move the collection to b.
	waitFor(t, "watchdog failover", func() bool { return b.Stats().IndexedFiles == 1 })
	if cl.Reconnects() != 1 {
		t.Errorf("reconnects = %d, want 1", cl.Reconnects())
	}
	r, err := cl.Search("anthem", 150*time.Millisecond)
	if err != nil || len(r) != 1 {
		t.Fatalf("post-watchdog search = %+v, %v", r, err)
	}
}

// TestBackoffDeterministicSchedule pins the reconnect delay sequence to the
// seed: same seed, same delays; different seed, different delays.
func TestBackoffDeterministicSchedule(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		rng := stats.NewRNG(seed)
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, fastBackoff.Delay(i, rng))
		}
		return out
	}
	a, b := seq(11), seq(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs for identical seeds: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0] != 0 {
		t.Errorf("first attempt delay = %v, want immediate", a[0])
	}
	for i := 2; i < len(a); i++ {
		if a[i] > time.Duration(float64(fastBackoff.Max)) {
			t.Errorf("delay %d = %v exceeds max %v", i, a[i], fastBackoff.Max)
		}
	}
	c := seq(12)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical delay sequences")
	}
}

// deadlineFailConn fails SetReadDeadline on demand, simulating a connection
// whose deadline state can no longer be trusted.
type deadlineFailConn struct {
	net.Conn
	fail *atomic.Bool
}

func (c *deadlineFailConn) SetReadDeadline(t time.Time) error {
	if c.fail.Load() {
		return errors.New("injected SetReadDeadline failure")
	}
	return c.Conn.SetReadDeadline(t)
}

// TestSearchDeadlineFailureRetiresConn is the satellite regression test for
// the deadline-clearing path: when SetReadDeadline fails mid-search, the
// connection is retired (never reused with a stale deadline) and the next
// call transparently reconnects.
func TestSearchDeadlineFailureRetiresConn(t *testing.T) {
	n := startNode(t, Options{})
	var fail atomic.Bool
	first := true
	cl, err := DialClientOptions(DialOptions{
		Addrs:   []string{n.Addr(), n.Addr()},
		Backoff: fastBackoff,
		Seed:    5,
		Net: link.Net{DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := link.Net{}.Dial(addr, timeout)
			if err != nil || !first {
				return c, err
			}
			first = false
			return &deadlineFailConn{Conn: c, fail: &fail}, nil
		}},
	}, []SharedFile{{Index: 1, Title: "deadline dirge"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "joined", func() bool { return n.Stats().IndexedFiles == 1 })

	// Healthy searches work through the instrumented connection.
	if r, err := cl.Search("dirge", 150*time.Millisecond); err != nil || len(r) != 1 {
		t.Fatalf("pre-failure search = %+v, %v", r, err)
	}

	fail.Store(true)
	if _, err := cl.Search("dirge", 150*time.Millisecond); err == nil {
		t.Fatal("search with failing SetReadDeadline reported success")
	}

	// The poisoned connection was retired. The client has no watchdog
	// (HeartbeatInterval unset), so it is the next search that reconnects
	// (plain conn this time) and re-joins; once the node has dropped the old
	// link's entry and indexed the new join, searches succeed with a working
	// deadline.
	if _, err := cl.Search("dirge", 150*time.Millisecond); err != nil {
		t.Fatalf("reconnecting search: %v", err)
	}
	waitFor(t, "re-joined after retirement", func() bool { return n.Stats().IndexedFiles == 1 })
	r, err := cl.Search("dirge", 150*time.Millisecond)
	if err != nil {
		t.Fatalf("post-retirement search: %v", err)
	}
	if len(r) != 1 {
		t.Fatalf("post-retirement results = %+v, want 1", r)
	}
	if cl.Reconnects() != 1 {
		t.Errorf("reconnects = %d, want 1", cl.Reconnects())
	}
}

// TestHeartbeatDetectsDeadPeer checks super-peer dead-peer detection: a peer
// that handshakes and then goes silent is pinged, times out, and is dropped
// from the overlay.
func TestHeartbeatDetectsDeadPeer(t *testing.T) {
	n := startNode(t, Options{
		HeartbeatInterval: 40 * time.Millisecond,
		HeartbeatTimeout:  120 * time.Millisecond,
	})
	// A raw TCP "peer" that never answers pings.
	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte(link.Peer + "\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(link.OK)+1)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "silent peer admitted", func() bool { return n.Stats().Peers == 1 })
	waitFor(t, "silent peer declared dead", func() bool { return n.Stats().Peers == 0 })
}

// TestHeartbeatKeepsLivePeerConnected is the inverse: two real nodes
// answering each other's pings stay connected well past the heartbeat
// timeout.
func TestHeartbeatKeepsLivePeerConnected(t *testing.T) {
	opts := Options{
		HeartbeatInterval: 30 * time.Millisecond,
		HeartbeatTimeout:  90 * time.Millisecond,
	}
	a := startNode(t, opts)
	b := startNode(t, opts)
	if err := a.ConnectPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peered", func() bool { return b.Stats().Peers == 1 })
	time.Sleep(300 * time.Millisecond) // several timeout windows
	if a.Stats().Peers != 1 || b.Stats().Peers != 1 {
		t.Errorf("live peers dropped: a=%d b=%d, want 1 and 1",
			a.Stats().Peers, b.Stats().Peers)
	}
}

// failingConn is a connection whose writes, once armed, kill it and fail,
// as a remote reset would.
type failingConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c failingConn) Write(p []byte) (int, error) {
	if c.armed.Load() {
		c.Conn.Close()
		return 0, errors.New("test: connection reset")
	}
	return c.Conn.Write(p)
}

// TestSearchDetailedAccountsDeadNeighbor checks graceful degradation with
// per-neighbor accounting: a search over an overlay with a faulted link
// returns local results plus the per-neighbor error, instead of failing.
func TestSearchDetailedAccountsDeadNeighbor(t *testing.T) {
	var armed atomic.Bool
	a := startNode(t, Options{Net: link.Net{DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := link.Net{}.Dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		return failingConn{c, &armed}, nil
	}}})
	b := startNode(t, Options{})
	if err := a.ConnectPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	local, err := DialClient(a.Addr(), []SharedFile{{Index: 1, Title: "local hit"}})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	waitFor(t, "local indexed", func() bool { return a.Stats().IndexedFiles == 1 })

	// Kill a's outbound link traffic from now on.
	armed.Store(true)
	out, err := a.SearchDetailed("hit", 100*time.Millisecond)
	if err != nil {
		t.Fatalf("SearchDetailed: %v", err)
	}
	if len(out.Results) != 1 {
		t.Errorf("results = %+v, want the local hit despite the dead link", out.Results)
	}
	if len(out.Neighbors) != 1 || out.Failed() != 1 {
		t.Errorf("neighbor accounting = %+v, want one failed neighbor", out.Neighbors)
	}
}

// joinGate is a connection that, once the gate is armed, holds its Join
// frame write until the gate is released.
type joinGate struct {
	net.Conn
	g *gate
}

type gate struct {
	armed   atomic.Bool
	held    chan struct{} // closed when a Join write is held
	release chan struct{}
	once    sync.Once
}

func (c joinGate) Write(p []byte) (int, error) {
	m, err := gnutella.ReadMessage(bytes.NewReader(p))
	if c.g.armed.Load() && err == nil && m.Type() == gnutella.TypeJoin {
		c.g.once.Do(func() { close(c.g.held) })
		<-c.g.release
	}
	return c.Conn.Write(p)
}

// TestClientCloseDuringFailoverClosesRejoinedLink: a Close that lands while
// a failover is sending its Join leaves no link behind, so the partner drops
// the client as Close promises.
func TestClientCloseDuringFailoverClosesRejoinedLink(t *testing.T) {
	primary := startNode(t, Options{})
	partner := startNode(t, Options{})
	g := &gate{held: make(chan struct{}), release: make(chan struct{})}
	cl, err := DialClientOptions(DialOptions{
		Addrs:   []string{primary.Addr(), partner.Addr()},
		Backoff: fastBackoff,
		Net: link.Net{DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := link.Net{}.Dial(addr, timeout)
			if err != nil {
				return nil, err
			}
			return joinGate{c, g}, nil
		}},
	}, []SharedFile{{Index: 1, Title: "orphan"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "client joined primary", func() bool { return primary.Stats().IndexedFiles == 1 })

	g.armed.Store(true)
	primary.Close()
	if _, err := cl.Search("orphan", 100*time.Millisecond); err == nil {
		t.Fatal("search over the dead link reported success")
	}
	reconnected := make(chan error, 1)
	go func() { reconnected <- cl.Reconnect() }()
	select {
	case <-g.held:
	case <-time.After(5 * time.Second):
		t.Fatal("failover never sent its Join")
	}
	cl.Close()
	close(g.release)
	<-reconnected

	// The partner admitted the link before the Join was held, so an open
	// link count of 0 means it saw the link close, not that the Join has
	// yet to land.
	deadline := time.Now().Add(2 * time.Second)
	for partner.Stats().Clients != 0 || partner.Metrics().ConnsOpen.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("partner still holds %d clients on %d links 2s after Close",
				partner.Stats().Clients, partner.Metrics().ConnsOpen.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientCloseAfterBrokenLink: a client whose only super-peer died, and
// whose failover gave up, closes cleanly. The broken link's Conn was closed
// when it broke, and Close does not close it a second time.
func TestClientCloseAfterBrokenLink(t *testing.T) {
	n := startNode(t, Options{})
	cl, err := DialClientOptions(DialOptions{
		Addrs:       []string{n.Addr()},
		Backoff:     fastBackoff,
		MaxAttempts: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	// The first search breaks the link; the second fails over and gives up.
	for i := 0; i < 2; i++ {
		if _, err := cl.Search("anything", 200*time.Millisecond); err == nil {
			t.Fatalf("search %d against a closed super-peer succeeded", i)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close after a broken link: %v", err)
	}
}
