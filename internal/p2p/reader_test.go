package p2p

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/metrics"
)

// hitWith is a QueryHit for query id from one dialable responder with n
// results.
func hitWith(id gnutella.GUID, n int) *gnutella.QueryHit {
	hit := needleHit(id, 1)
	hit.Responders[0].ResultCount = uint16(n)
	hit.Results = nil
	for i := 0; i < n; i++ {
		hit.Results = append(hit.Results, gnutella.ResultRecord{FileIndex: uint32(i), Title: "needle"})
	}
	return hit
}

// readerFrames is what a peer sends in the reader tests: a query, a
// duplicate copy of it, hits with 1 and 25 results and a Busy for it, a
// Summary and a Ping; then a hit whose responder count does not fit its
// payload.
func readerFrames(id gnutella.GUID) ([]gnutella.Message, []byte) {
	q := &gnutella.Query{ID: id, TTL: 3, Text: "needle"}
	valid := []gnutella.Message{q, q, hitWith(id, 1), hitWith(id, 25), &gnutella.Busy{ID: id, TTL: 1, Hops: 1},
		&gnutella.Summary{ID: testGUID(2), TTL: 1, Terms: []string{"needle"}}, &gnutella.Ping{ID: testGUID(3), TTL: 1}}
	malformed, _ := hitWith(id, 1).Encode()
	malformed[23] = 2
	return valid, malformed
}

// meterEqual fails t unless a and b metered the same messages and bytes in
// every class and direction.
func meterEqual(t *testing.T, what string, a, b *metrics.LoadMeter) {
	t.Helper()
	for cl := metrics.Class(0); int(cl) < metrics.NumClasses; cl++ {
		for _, d := range []metrics.Dir{metrics.DirIn, metrics.DirOut} {
			if am, bm, ab, bb := a.Messages(cl, d), b.Messages(cl, d), a.Bytes(cl, d), b.Bytes(cl, d); am != bm || ab != bb {
				t.Errorf("%s: %v %v metered %d messages, %d bytes; want %d, %d", what, cl, d, am, ab, bm, bb)
			}
		}
	}
}

// readAll reads frames off c until its far side closes it, and returns
// their bytes.
func readAll(t *testing.T, c net.Conn) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	b, err := io.ReadAll(c)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("link still open after the malformed hit")
	}
	return b
}

// TestPeerReaderMetersAsDecode: a peer link's reader routes frames by their
// header, and meters them as the decoding read does. One frame set goes to a
// node's peer link, and to a link read with Recv that relays as the node did
// before: decode, Hops + 1, re-encode. Both links meter the same messages
// and bytes per class and direction, send back the same bytes, and drop the
// link at the malformed hit without relaying it. Each frame, and each relayed
// one, also prices the same Table 2 processing as its decoded form.
func TestPeerReaderMetersAsDecode(t *testing.T) {
	id := testGUID(1)
	valid, malformed := readerFrames(id)

	n := startNode(t, Options{HeartbeatInterval: -1})
	raw := dialRawPeer(t, n.Addr())
	waitFor(t, "link up", func() bool { return n.Stats().Peers == 1 })
	for i, m := range valid {
		if err := gnutella.WriteMessage(raw, m); err != nil {
			t.Fatal(err)
		}
		if i == 0 { // the hits need the route the first copy makes
			waitFor(t, "first copy handled", func() bool { return n.Stats().QueriesHandled == 1 })
		}
	}
	raw.Write(malformed)
	fromNode := readAll(t, raw)
	waitFor(t, "link dropped", func() bool { return n.Stats().Peers == 0 })
	if st := n.Stats(); st.QueriesHandled != 2 || st.BusyReceived != 1 {
		t.Errorf("node handled %d copies, received %d Busy; want 2 and 1", st.QueriesHandled, st.BusyReceived)
	}

	ref := NewNode(Options{})
	ln, err := link.Net{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, lc, err := link.ReadHello(c, 5*time.Second, link.Framing{Meter: ref.meterMessage})
		if err != nil || lc.Reply(true) != nil {
			return
		}
		for {
			m, err := lc.Recv(time.Time{})
			if err != nil {
				return
			}
			switch r := m.(type) {
			case *gnutella.QueryHit:
				r.Hops++
				lc.Send(r, time.Second)
			case *gnutella.Busy:
				r.Hops++
				lc.Send(r, time.Second)
			}
		}
	}()
	dec, err := link.Net{}.Open(ln.Addr().String(), link.Peer, 5*time.Second, link.Framing{})
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	for _, m := range valid {
		if err := gnutella.WriteMessage(dec, m); err != nil {
			t.Fatal(err)
		}
	}
	dec.Write(malformed)
	fromRef := readAll(t, dec)

	if !bytes.Equal(fromNode, fromRef) {
		t.Errorf("the node sent back % x\nthe decoding relay % x", fromNode, fromRef)
	}
	var want bytes.Buffer
	for _, m := range valid[2:5] {
		switch r := m.(type) {
		case *gnutella.QueryHit:
			relayed := *r
			relayed.Hops++
			gnutella.WriteMessage(&want, &relayed)
		case *gnutella.Busy:
			relayed := *r
			relayed.Hops++
			gnutella.WriteMessage(&want, &relayed)
		}
	}
	gnutella.WriteMessage(&want, &gnutella.Pong{ID: testGUID(3), TTL: 1})
	if !bytes.Equal(fromNode, want.Bytes()) {
		t.Errorf("the node sent back % x\nwant the two hits and the Busy, Hops + 1, and a Pong: % x", fromNode, want.Bytes())
	}
	meterEqual(t, "header-first reader vs Recv", n.metrics.Load, ref.metrics.Load)

	for _, m := range valid {
		for _, d := range []metrics.Dir{metrics.DirIn, metrics.DirOut} {
			byFrame, byMsg := NewNode(Options{}), NewNode(Options{})
			byFrame.meterMessage(d, frameOf(m))
			byMsg.meterMessage(d, m)
			meterEqual(t, m.Type().String(), byFrame.metrics.Load, byMsg.metrics.Load)
			if a, b := byFrame.metrics.ProcUnits.Value(), byMsg.metrics.ProcUnits.Value(); a != b {
				t.Errorf("%v %v: a Frame prices %v units, its decoded form %v", m.Type(), d, a, b)
			}
		}
	}
}

// replayConn is a net.Conn whose reads serve stream once and then frame
// over and over, and whose writes are discarded: a peer link that sends one
// frame for ever, with no socket and no goroutine behind it.
type replayConn struct {
	stream, frame []byte
}

var replayAddr = &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 6346}

func (c *replayConn) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(c.stream) == 0 {
			c.stream = c.frame
		}
		k := copy(p[n:], c.stream)
		c.stream, n = c.stream[k:], n+k
	}
	return n, nil
}

func (c *replayConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *replayConn) Close() error                     { return nil }
func (c *replayConn) LocalAddr() net.Addr              { return replayAddr }
func (c *replayConn) RemoteAddr() net.Addr             { return replayAddr }
func (c *replayConn) SetDeadline(time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }

// TestPeerReaderAllocs pins what a peer link's reader costs the heap per
// frame once its Frame and send list are warm: reading a duplicate Query
// allocates nothing (it is never decoded), and so does reading a 25-result
// hit and relaying it back over a link.
func TestPeerReaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector, as TestCodecAllocs's are")
	}
	id := testGUID(1)
	for _, tc := range []struct {
		name string
		m    gnutella.Message
	}{
		{"duplicate query", &gnutella.Query{ID: id, TTL: 3, Text: "needle"}},
		{"25-result hit", hitWith(id, 25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNode(Options{HeartbeatInterval: -1})
			var wire bytes.Buffer
			if err := gnutella.WriteMessage(&wire, tc.m); err != nil {
				t.Fatal(err)
			}
			frame := wire.Bytes()
			rc := &replayConn{stream: append([]byte(link.Peer+"\n"), frame...), frame: frame}
			_, lc, err := link.ReadHello(rc, time.Second, n.framing)
			if err != nil {
				t.Fatal(err)
			}
			c := newConn(n, lc, rolePeer)
			n.peers[c.peerID] = c
			n.core.addPeer(c.peerID)
			// The query's route goes back over c: a later copy is a
			// duplicate, and a hit is relayed back to c.
			n.core.query(c.peerID, &gnutella.Query{ID: id, TTL: 3, Text: "needle"}, time.Now(), nil)
			var (
				f  gnutella.Frame
				sl sendList
			)
			handled := n.metrics.QueriesHandled.Value()
			allocs := testing.AllocsPerRun(100, func() {
				if err := lc.RecvFrame(time.Time{}, &f); err != nil || !n.peerFrame(c, &f, &sl) {
					t.Fatalf("reading a %v: %v", f.Type(), err)
				}
			})
			if got := n.metrics.Load.Messages(gnutella.MessageClass(tc.m), metrics.DirOut); tc.m.Type() == gnutella.TypeQueryHit && got < 100 {
				t.Fatalf("%d hits relayed, want one per read", got)
			}
			if tc.m.Type() == gnutella.TypeQuery && n.metrics.QueriesHandled.Value()-handled < 100 {
				t.Fatalf("%d duplicates handled, want one per read", n.metrics.QueriesHandled.Value()-handled)
			}
			if allocs != 0 {
				t.Errorf("%v allocs per %s read on a peer link, want 0", allocs, tc.name)
			}
		})
	}
}

// TestPeerScoresListEveryLink: under Trust every live peer link has a score,
// the 0.5 prior before its first hit or Busy, and a link's score leaves with
// the link.
func TestPeerScoresListEveryLink(t *testing.T) {
	n := startNode(t, Options{Trust: true, HeartbeatInterval: -1})
	raw := dialRawPeer(t, n.Addr())
	waitFor(t, "link up", func() bool { return n.Stats().Peers == 1 })
	if got := n.PeerScores(); !reflect.DeepEqual(got, map[int]float64{0: 0.5}) {
		t.Errorf("PeerScores on a fresh link = %v, want map[0:0.5]", got)
	}
	raw.Close()
	waitFor(t, "link down", func() bool { return n.Stats().Peers == 0 })
	if got := n.PeerScores(); len(got) != 0 {
		t.Errorf("PeerScores with no link = %v, want none", got)
	}
}
