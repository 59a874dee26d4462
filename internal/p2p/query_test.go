package p2p

import (
	"bufio"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/metrics"
)

// answerPeer is a raw peer link that answers the query copy a node forwards
// to it with one QueryHit and then one Busy, both carrying the copy's Hops.
type answerPeer struct {
	c net.Conn
	// frames holds what the node sends on the link: a query copy and a Pong
	// per case, well under its capacity, so the reader never blocks on it.
	frames chan gnutella.Message
	copy   *gnutella.Query // the copy it answered
}

func newAnswerPeer(t *testing.T, addr string) *answerPeer {
	t.Helper()
	ap := &answerPeer{c: dialRawPeer(t, addr), frames: make(chan gnutella.Message, 16)}
	go func() {
		defer close(ap.frames)
		br := bufio.NewReader(ap.c)
		for {
			m, err := gnutella.ReadMessage(br)
			if err != nil {
				return
			}
			ap.frames <- m
		}
	}()
	return ap
}

// await returns the next frame of type want the node sends on the link.
func (ap *answerPeer) await(t *testing.T, want gnutella.MsgType) gnutella.Message {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case m, ok := <-ap.frames:
			if !ok {
				t.Fatalf("link closed waiting for a %v", want)
			}
			if m.Type() == want {
				return m
			}
		case <-timeout:
			t.Fatalf("timed out waiting for a %v", want)
		}
	}
}

// answer waits for the forwarded copy, runs between (if set), then answers
// the copy. It returns once the node has handled both responses: the node's
// reader handles frames in order, so the Pong to a trailing Ping marks it.
func (ap *answerPeer) answer(t *testing.T, between func()) {
	t.Helper()
	q := ap.await(t, gnutella.TypeQuery).(*gnutella.Query)
	ap.copy = q
	if between != nil {
		between()
	}
	hit := &gnutella.QueryHit{ID: q.ID, TTL: 1, Hops: q.Hops,
		Responders: []gnutella.ResponderRecord{{IP: [4]byte{127, 0, 0, 1}, Port: 6346, ResultCount: 1}},
		Results:    []gnutella.ResultRecord{{FileIndex: 7, Title: q.Text}},
	}
	for _, m := range []gnutella.Message{hit, &gnutella.Busy{ID: q.ID, TTL: 1, Hops: q.Hops}, &gnutella.Ping{ID: testGUID(99), TTL: 1}} {
		if err := gnutella.WriteMessage(ap.c, m); err != nil {
			t.Fatalf("answering: %v", err)
		}
	}
	ap.await(t, gnutella.TypePong)
}

// responses reads a raw link until it has received one QueryHit and one
// Busy, and returns each hit's Hops and the Busy count.
func responses(t *testing.T, c net.Conn, br *bufio.Reader) (hops []int, busy int) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(hops) == 0 || busy == 0 {
		msg, err := gnutella.ReadMessage(br)
		if err != nil {
			t.Fatalf("after %d hits and %d Busy: %v", len(hops), busy, err)
		}
		switch m := msg.(type) {
		case *gnutella.QueryHit:
			hops = append(hops, int(m.Hops))
		case *gnutella.Busy:
			busy++
		}
	}
	return hops, busy
}

// clientOrigin has a raw client submit the query; with leave set the client
// disconnects before the answering peer replies.
func clientOrigin(leave bool) func(*testing.T, *Node, *answerPeer) ([]int, int) {
	return func(t *testing.T, n *Node, ap *answerPeer) ([]int, int) {
		rc := dialRaw(t, n.Addr(), nil)
		if err := gnutella.WriteMessage(rc.c, &gnutella.Query{ID: testGUID(1), TTL: 1, Text: "needle"}); err != nil {
			t.Fatal(err)
		}
		if !leave {
			ap.answer(t, nil)
			return responses(t, rc.c, rc.br)
		}
		ap.answer(t, func() {
			rc.c.Close()
			waitFor(t, "client gone", func() bool { return n.Stats().Clients == 0 })
		})
		return nil, 0
	}
}

// TestReversePath: one QueryHit and one Busy for a query retrace its reverse
// path to the query's origin exactly once — the node's own search, a
// client's query, or a copy relayed from another peer — with the Hops each
// origin has always seen. The responses for a client that has left are
// dropped without a send being tried anywhere.
func TestReversePath(t *testing.T) {
	for _, tc := range []struct {
		name string
		// run submits the query at its origin, has the answering peer answer
		// the node's copy, and returns what the origin got back: each
		// QueryHit's Hops and the number of Busy frames.
		run      func(t *testing.T, n *Node, ap *answerPeer) (hops []int, busy int)
		copyHops uint8 // Hops on the copy the answering peer receives
		hops     []int // Hops on the origin's hits
		busy     int
		sent     int64 // QueryHits, and Busy frames, the node sends on
	}{
		{"own search", func(t *testing.T, n *Node, ap *answerPeer) ([]int, int) {
			done := make(chan *SearchOutcome, 1)
			go func() {
				out, _ := n.SearchDetailed("needle", 300*time.Millisecond)
				done <- out
			}()
			ap.answer(t, nil)
			out := <-done
			var hops []int
			for _, r := range out.Results {
				hops = append(hops, r.Hops)
			}
			return hops, out.Busy
		}, 0, []int{0}, 1, 0},
		{"client", clientOrigin(false), 0, []int{1}, 1, 1},
		{"relayed", func(t *testing.T, n *Node, ap *answerPeer) ([]int, int) {
			src := dialRawPeer(t, n.Addr())
			waitFor(t, "both links up", func() bool { return n.Stats().Peers == 2 })
			if err := gnutella.WriteMessage(src, &gnutella.Query{ID: testGUID(1), TTL: 3, Hops: 2, Text: "needle"}); err != nil {
				t.Fatal(err)
			}
			ap.answer(t, nil)
			return responses(t, src, bufio.NewReader(src))
		}, 3, []int{4}, 1, 1},
		{"client left", clientOrigin(true), 0, nil, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var failed atomic.Int32 // sends the node tried and failed
			n := startNode(t, Options{HeartbeatInterval: -1, Logf: func(format string, _ ...any) {
				if strings.HasPrefix(format, "p2p: responding") {
					failed.Add(1)
				}
			}})
			ap := newAnswerPeer(t, n.Addr())
			waitFor(t, "answering peer up", func() bool { return n.Stats().Peers == 1 })

			hops, busy := tc.run(t, n, ap)
			if ap.copy.Hops != tc.copyHops {
				t.Errorf("answering peer got a copy with Hops %d, want %d", ap.copy.Hops, tc.copyHops)
			}
			if !slices.Equal(hops, tc.hops) || busy != tc.busy {
				t.Errorf("origin got hits with Hops %v and %d Busy, want %v and %d", hops, busy, tc.hops, tc.busy)
			}
			if failed.Load() != 0 {
				t.Errorf("node tried and failed %d response sends", failed.Load())
			}
			if st := n.Stats(); st.HitsUnsolicited != 0 || st.BusyReceived != 1 {
				t.Errorf("stats %+v: want the hit solicited and one Busy received", st)
			}
			load := n.Metrics().Load
			for _, cl := range []metrics.Class{metrics.ClassResponse, metrics.ClassBusy} {
				in, out := load.Messages(cl, metrics.DirIn), load.Messages(cl, metrics.DirOut)
				if in != 1 || out != tc.sent {
					t.Errorf("%v: node received %d and sent %d, want 1 and %d", cl, in, out, tc.sent)
				}
			}
		})
	}
}
