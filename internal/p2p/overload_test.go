package p2p

import (
	"bufio"
	"net"
	"sort"
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
)

// slowWriteConn delays every write, simulating a saturated downlink so the
// dispatch workers fall behind the arrival rate.
type slowWriteConn struct {
	net.Conn
	delay time.Duration
}

func (c *slowWriteConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// slowListener accepts connections whose every write is delayed.
type slowListener struct{ net.Listener }

func (l slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &slowWriteConn{Conn: c, delay: 2 * time.Millisecond}, nil
}

// rawClient is a bare wire-level client: handshake + join, no failover
// machinery, so tests control exactly what goes on the wire and when.
type rawClient struct {
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string, files []gnutella.MetadataRecord) *rawClient {
	t.Helper()
	c, err := link.Net{}.Open(addr, link.Client, 5*time.Second, link.Framing{})
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	guid := gnutella.GUID{0xaa}
	if err := gnutella.WriteMessage(c, &gnutella.Join{ID: guid, Files: files}); err != nil {
		t.Fatalf("join: %v", err)
	}
	return &rawClient{c: c, br: bufio.NewReader(c)}
}

// testGUID builds a deterministic distinct GUID per query index.
func testGUID(i int) gnutella.GUID {
	var g gnutella.GUID
	g[0] = byte(i)
	g[1] = byte(i >> 8)
	g[2] = 0x42
	return g
}

// TestNodeOverloadSheds drives a deliberately under-provisioned node (one
// slow worker, tiny queue and inflight caps) far past capacity and checks the
// overload contract: excess queries are refused with counted Busy responses,
// nothing is silently dropped, and response latency stays bounded because the
// node sheds instead of queueing without limit.
func TestNodeOverloadSheds(t *testing.T) {
	const nQueries = 200
	n := startNode(t, Options{
		QueryWorkers: 1,
		QueueDepth:   4,
		MaxInflight:  4,
		Net: link.Net{ListenFunc: func(addr string) (net.Listener, error) {
			ln, err := link.Net{}.Listen(addr)
			return slowListener{ln}, err
		}},
	})
	rc := dialRaw(t, n.Addr(), []gnutella.MetadataRecord{
		{FileIndex: 1, Title: "needle in a haystack"},
	})
	waitFor(t, "join indexed", func() bool { return n.Stats().IndexedFiles == 1 })

	// Blast queries far faster than one 2ms-per-write worker can answer.
	sentAt := make(map[gnutella.GUID]time.Time, nQueries)
	for i := 0; i < nQueries; i++ {
		id := testGUID(i)
		sentAt[id] = time.Now()
		if err := gnutella.WriteMessage(rc.c, &gnutella.Query{ID: id, TTL: 1, Text: "needle"}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	// Every admitted query matches the needle (one hit); every shed query
	// must come back as Busy. Nothing may go unanswered.
	hits, busy := 0, 0
	latencies := make([]time.Duration, 0, nQueries)
	rc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	for hits+busy < nQueries {
		msg, err := gnutella.ReadMessage(rc.br)
		if err != nil {
			t.Fatalf("after %d hits + %d busy: read: %v", hits, busy, err)
		}
		var id gnutella.GUID
		switch m := msg.(type) {
		case *gnutella.QueryHit:
			hits++
			id = m.ID
		case *gnutella.Busy:
			busy++
			id = m.ID
		default:
			continue
		}
		if at, ok := sentAt[id]; ok {
			latencies = append(latencies, time.Since(at))
		}
	}

	if hits == 0 {
		t.Error("no queries were answered; overload protection starved admitted work")
	}
	if busy == 0 {
		t.Error("no Busy responses despite overload")
	}
	// dispatch counts a query as handled only after its QueryHit is written,
	// so the client can read the last hit before the counter moves: wait
	// for the counters to catch up with what the client saw.
	waitFor(t, "counters to match the client's tally", func() bool {
		st := n.Stats()
		return int(st.QueriesHandled) == hits && int(st.QueriesShed) == busy
	})
	st := n.Stats()
	if st.QueriesShed == 0 {
		t.Errorf("Stats().QueriesShed = 0, want > 0 (hits=%d busy=%d)", hits, busy)
	}
	if int(st.QueriesShed) != busy {
		t.Errorf("Stats().QueriesShed = %d, but client counted %d Busy frames", st.QueriesShed, busy)
	}
	if got := int(st.QueriesHandled); got != hits {
		t.Errorf("Stats().QueriesHandled = %d, but client counted %d hits", got, hits)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	if p99 > 3*time.Second {
		t.Errorf("p99 response latency %v exceeds bound; queue not shedding", p99)
	}
}

// TestClientQueryRateLimit checks the per-client token bucket: a client
// blasting queries far over its configured rate gets Busy refusals, counted
// as RateLimited, while the first burst-worth of queries is admitted.
func TestClientQueryRateLimit(t *testing.T) {
	const nQueries = 50
	n := startNode(t, Options{
		ClientQueryRate:  5,
		ClientQueryBurst: 2,
	})
	rc := dialRaw(t, n.Addr(), []gnutella.MetadataRecord{
		{FileIndex: 1, Title: "needle"},
	})
	waitFor(t, "join indexed", func() bool { return n.Stats().IndexedFiles == 1 })

	for i := 0; i < nQueries; i++ {
		if err := gnutella.WriteMessage(rc.c, &gnutella.Query{ID: testGUID(i), TTL: 1, Text: "needle"}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	hits, busy := 0, 0
	rc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	for hits+busy < nQueries {
		msg, err := gnutella.ReadMessage(rc.br)
		if err != nil {
			t.Fatalf("after %d hits + %d busy: read: %v", hits, busy, err)
		}
		switch msg.(type) {
		case *gnutella.QueryHit:
			hits++
		case *gnutella.Busy:
			busy++
		}
	}
	st := n.Stats()
	if st.RateLimited < 40 {
		t.Errorf("Stats().RateLimited = %d, want >= 40 of %d over-rate queries", st.RateLimited, nQueries)
	}
	if int(st.RateLimited) != busy {
		t.Errorf("Stats().RateLimited = %d, but client counted %d Busy frames", st.RateLimited, busy)
	}
	if hits < 2 {
		t.Errorf("hits = %d, want >= burst (2) admitted", hits)
	}
}

// TestClientSearchDetailedCountsBusy checks the supervised client surfaces
// load-shed signals: a rate-limited query reports Busy in its outcome rather
// than silently returning zero results.
func TestClientSearchDetailedCountsBusy(t *testing.T) {
	n := startNode(t, Options{
		ClientQueryRate:  0.001, // effectively: one query per bucket refill era
		ClientQueryBurst: 1,
	})
	cl, err := DialClient(n.Addr(), []SharedFile{{Index: 1, Title: "needle"}})
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer cl.Close()
	waitFor(t, "join indexed", func() bool { return n.Stats().IndexedFiles == 1 })

	first, err := cl.SearchDetailed("needle", 200*time.Millisecond)
	if err != nil {
		t.Fatalf("first search: %v", err)
	}
	if len(first.Results) != 1 || first.Busy != 0 {
		t.Fatalf("first search = %d results, %d busy; want 1, 0", len(first.Results), first.Busy)
	}
	second, err := cl.SearchDetailed("needle", 200*time.Millisecond)
	if err != nil {
		t.Fatalf("second search: %v", err)
	}
	if second.Busy != 1 || len(second.Results) != 0 {
		t.Fatalf("second search = %d results, %d busy; want 0, 1", len(second.Results), second.Busy)
	}
	if got := cl.BusyResponses(); got != 1 {
		t.Errorf("BusyResponses() = %d, want 1", got)
	}
}

// TestNodePartialFrameTimeout checks the frame-completion deadline: a sender
// that stalls mid-frame is disconnected within FrameTimeout instead of
// pinning a reader goroutine (and its connection slot) forever.
func TestNodePartialFrameTimeout(t *testing.T) {
	n := startNode(t, Options{FrameTimeout: 200 * time.Millisecond})
	rc := dialRaw(t, n.Addr(), nil)

	// A descriptor header promising a 100-byte payload, then silence.
	head := make([]byte, gnutella.DescriptorHeaderLen)
	head[16] = byte(gnutella.TypeQuery)
	head[17] = 1   // TTL
	head[19] = 100 // little-endian payload length
	if _, err := rc.c.Write(head); err != nil {
		t.Fatalf("partial frame: %v", err)
	}

	start := time.Now()
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rc.br.ReadByte(); err == nil {
		t.Fatal("expected the node to close the stalled connection")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("stalled frame held the connection for %v; FrameTimeout not enforced", waited)
	}
}

// TestNodeOverlongHelloClosed checks the bound on the hello line: a dialer
// that streams bytes with no newline is cut off once it passes link's line
// bound, well inside the setup timeout, instead of being buffered until it
// expires.
func TestNodeOverlongHelloClosed(t *testing.T) {
	n := startNode(t, Options{DialTimeout: 10 * time.Second})
	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		c.SetWriteDeadline(time.Now().Add(5 * time.Second))
		c.Write(make([]byte, 64<<10)) // fails once the node hangs up
	}()

	start := time.Now()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = c.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		t.Fatalf("read = %v; want the node to close an over-long hello", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("over-long hello held the connection for %v", waited)
	}
}
