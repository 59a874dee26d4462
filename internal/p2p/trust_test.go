package p2p

import (
	"fmt"
	"net"
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/metrics"
)

// dialRawPeer performs a peer handshake and returns the raw link —
// for injecting protocol traffic a well-behaved Node would never send.
func dialRawPeer(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := link.Dialer(nil).Open(addr, link.Peer, 5*time.Second, link.Framing{})
	if err != nil {
		t.Fatalf("peer handshake: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestUnsolicitedHitDropped: a QueryHit whose GUID matches no outstanding
// query must be counted and dropped — trust on or off — so forged or
// replayed hits can't be laundered through expired routes.
func TestUnsolicitedHitDropped(t *testing.T) {
	n := startNode(t, Options{})
	c := dialRawPeer(t, n.Addr())

	hit := &gnutella.QueryHit{ID: gnutella.NewGUID(), TTL: 1}
	hit.Responders = append(hit.Responders, gnutella.ResponderRecord{ResultCount: 1})
	hit.Results = append(hit.Results, gnutella.ResultRecord{Title: "junk"})
	if err := gnutella.WriteMessage(c, hit); err != nil {
		t.Fatalf("writing unsolicited hit: %v", err)
	}
	waitFor(t, "unsolicited hit counted", func() bool {
		return n.Stats().HitsUnsolicited == 1
	})
}

// TestForgedHitValidation: with Trust on, a forging neighbor's fabricated
// hits (no dialable responder) are dropped before reaching the client and
// debit the forger's reputation; with Trust off the client receives the
// garbage — the vulnerable baseline.
func TestForgedHitValidation(t *testing.T) {
	for _, trustOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("trust=%v", trustOn), func(t *testing.T) {
			honest := startNode(t, Options{Trust: trustOn})
			forger := startNode(t, Options{Misbehave: &MisbehaveOptions{Forge: 1, Seed: 7}})
			if err := forger.ConnectPeer(honest.Addr()); err != nil {
				t.Fatalf("ConnectPeer: %v", err)
			}
			waitFor(t, "peer link up", func() bool { return honest.Stats().Peers == 1 })

			cl, err := DialClient(honest.Addr(), []SharedFile{{Index: 1, Title: "unrelated title"}})
			if err != nil {
				t.Fatalf("DialClient: %v", err)
			}
			defer cl.Close()

			out, err := cl.SearchDetailed("quantum flux", 300*time.Millisecond)
			if err != nil {
				t.Fatalf("SearchDetailed: %v", err)
			}
			if out.Genuine() != 0 {
				t.Fatalf("Genuine = %d, want 0 (no real matches exist)", out.Genuine())
			}
			st := honest.Stats()
			if trustOn {
				if len(out.Results) != 0 {
					t.Fatalf("trust-on client received %d forged results", len(out.Results))
				}
				if st.HitsForged == 0 {
					t.Fatalf("trust-on node counted no forged hits")
				}
				scores := honest.PeerScores()
				if len(scores) != 1 {
					t.Fatalf("PeerScores = %v, want one link", scores)
				}
				for _, s := range scores {
					if s >= 0.5 {
						t.Fatalf("forger's reputation = %.3f, want < 0.5", s)
					}
				}
			} else {
				if len(out.Results) == 0 {
					t.Fatalf("trust-off client should have accepted the forged results")
				}
				if st.HitsForged != 0 {
					t.Fatalf("trust-off node claims forged detection: %+v", st)
				}
				if honest.PeerScores() != nil {
					t.Fatalf("PeerScores should be nil with Trust off")
				}
			}
		})
	}
}

// TestTrustAdmissionShare: a distrusted overlay link's usable queue share
// collapses toward trustFloor, so its queries shed with the admission
// reason while a reputable link's pass.
func TestTrustAdmissionShare(t *testing.T) {
	n := startNode(t, Options{Trust: true, QueueDepth: 8})
	peer := startNode(t, Options{})
	if err := peer.ConnectPeer(n.Addr()); err != nil {
		t.Fatalf("ConnectPeer: %v", err)
	}
	waitFor(t, "peer link up", func() bool { return n.Stats().Peers == 1 })

	n.mu.Lock()
	var link *conn
	for p := range n.peers {
		link = p
	}
	n.mu.Unlock()
	if link == nil {
		t.Fatal("no peer conn")
	}

	q := &gnutella.Query{TTL: 2, Text: "anything"}
	if q.ID = gnutella.NewGUID(); q.ID == (gnutella.GUID{}) {
		t.Fatal("guid")
	}

	// Reputable link, empty queue: admission passes.
	n.book.SetPrior(link.peerID, 1, 100)
	n.enqueueQuery(link, q)
	if got := n.metrics.Shed[metrics.ShedAdmission][metrics.SourcePeer].Value(); got != 0 {
		t.Fatalf("reputable link shed %d by admission, want 0", got)
	}

	// Distrusted link: weight floors out, limit = max(1, 0.1*0.5*8) = 1;
	// with one overlay query already accounted, the next is shed.
	n.book.SetPrior(link.peerID, 0, 100)
	n.peerQueued.Store(1)
	defer n.peerQueued.Store(0)
	q2 := *q
	q2.ID = gnutella.NewGUID()
	n.enqueueQuery(link, &q2)
	if got := n.metrics.Shed[metrics.ShedAdmission][metrics.SourcePeer].Value(); got != 1 {
		t.Fatalf("distrusted link shed %d by admission, want 1", got)
	}
	waitFor(t, "busy delivered", func() bool { return peer.Stats().BusyReceived >= 1 })
}

// TestClientTrustRehoming is the live recovery story: a client homed on a
// Busy-lying partner re-homes to the honest one via reputation and regains
// recall, while a trust-oblivious client stays stuck — the malicious
// partner's TCP link never dies, so connectivity-driven failover alone
// can't save it.
func TestClientTrustRehoming(t *testing.T) {
	hub := startNode(t, Options{})
	liar := startNode(t, Options{Misbehave: &MisbehaveOptions{BusyLie: 1, Seed: 3}})
	good := startNode(t, Options{})
	for _, leaf := range []*Node{liar, good} {
		if err := leaf.ConnectPeer(hub.Addr()); err != nil {
			t.Fatalf("ConnectPeer: %v", err)
		}
	}
	waitFor(t, "overlay up", func() bool { return hub.Stats().Peers == 2 })

	provider, err := DialClient(hub.Addr(), []SharedFile{{Index: 9, Title: "deep purple smoke"}})
	if err != nil {
		t.Fatalf("provider DialClient: %v", err)
	}
	defer provider.Close()
	waitFor(t, "provider indexed", func() bool { return hub.Stats().IndexedFiles == 1 })

	search := func(cl *Client) int {
		t.Helper()
		out, err := cl.SearchDetailed("purple smoke", 400*time.Millisecond)
		if err != nil {
			t.Fatalf("SearchDetailed: %v", err)
		}
		return out.Genuine()
	}

	// Trust-oblivious baseline: homed on the liar, every search refused.
	oblivious, err := DialClientOptions(DialOptions{
		Addrs: []string{liar.Addr(), good.Addr()},
	}, nil)
	if err != nil {
		t.Fatalf("oblivious DialClientOptions: %v", err)
	}
	defer oblivious.Close()
	for i := 0; i < 3; i++ {
		if g := search(oblivious); g != 0 {
			t.Fatalf("oblivious client got %d genuine results through a total Busy-liar", g)
		}
	}
	if oblivious.Reconnects() != 0 {
		t.Fatalf("oblivious client failed over %d times with a healthy TCP link", oblivious.Reconnects())
	}

	// Trusting client: refusals tank the liar's score, the 0.5-prior rival
	// overtakes it, and the client re-homes and recovers recall.
	trusting, err := DialClientOptions(DialOptions{
		Addrs: []string{liar.Addr(), good.Addr()},
		Trust: true,
		Seed:  11,
	}, nil)
	if err != nil {
		t.Fatalf("trusting DialClientOptions: %v", err)
	}
	defer trusting.Close()
	if got := trusting.SuperPeerAddr(); got != liar.Addr() {
		t.Fatalf("trusting client homed on %s, want the liar %s first", got, liar.Addr())
	}
	genuine := 0
	for i := 0; i < 5 && genuine == 0; i++ {
		genuine = search(trusting)
	}
	if genuine == 0 {
		t.Fatalf("trusting client never recovered recall; scores %v", trusting.PartnerScores())
	}
	if got := trusting.SuperPeerAddr(); got != good.Addr() {
		t.Fatalf("trusting client on %s, want re-homed to %s", got, good.Addr())
	}
	scores := trusting.PartnerScores()
	if scores[liar.Addr()] >= scores[good.Addr()] {
		t.Fatalf("liar score %.3f not below honest %.3f", scores[liar.Addr()], scores[good.Addr()])
	}
}

// TestTrustPriorsRankInitialDial: noisy initial views steer the first
// connection to the best-reputed partner, not the first listed.
func TestTrustPriorsRankInitialDial(t *testing.T) {
	a := startNode(t, Options{})
	b := startNode(t, Options{})
	cl, err := DialClientOptions(DialOptions{
		Addrs:       []string{a.Addr(), b.Addr()},
		Trust:       true,
		TrustPriors: []float64{0.2, 0.9},
	}, nil)
	if err != nil {
		t.Fatalf("DialClientOptions: %v", err)
	}
	defer cl.Close()
	if got := cl.SuperPeerAddr(); got != b.Addr() {
		t.Fatalf("client homed on %s, want the better-reputed %s", got, b.Addr())
	}
}
