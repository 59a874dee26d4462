package p2p

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/metrics"
)

// epoch is the core tests' clock reading; the core has no clock of its own.
var epoch = time.Unix(1_000_000, 0)

// testCore is a core with peer links 0, 1 and 2 and one client, owner 0,
// sharing one file titled "needle" at 10.0.0.1:6346.
func testCore(opts Options) *core {
	opts.TTL = 7
	c := newCore(&opts, metrics.NewNodeMetrics())
	for id := 0; id < 3; id++ {
		c.addPeer(id)
	}
	c.join(0, needleOwner, []gnutella.MetadataRecord{{FileIndex: 4, Title: "Needle"}})
	return c
}

var needleOwner = gnutella.ResponderRecord{IP: [4]byte{10, 0, 0, 1}, Port: 6346, ClientGUID: gnutella.GUID{0xc1}}

// needleHit is the QueryHit testCore answers query id with, at hops.
func needleHit(id gnutella.GUID, hops uint8) *gnutella.QueryHit {
	rec := needleOwner
	rec.ResultCount = 1
	return &gnutella.QueryHit{ID: id, TTL: 7, Hops: hops,
		Responders: []gnutella.ResponderRecord{rec},
		Results:    []gnutella.ResultRecord{{FileIndex: 4, Title: "needle"}},
	}
}

// copyTo is the send of query id to peer link to with the given TTL and Hops.
func copyTo(to int, id gnutella.GUID, ttl, hops uint8) send {
	return send{to, &gnutella.Query{ID: id, TTL: ttl, Hops: hops, Text: "needle"}}
}

// TestCore steps the query core through each rule of the query path, with
// no node, socket or clock, and checks the sends each step decides.
func TestCore(t *testing.T) {
	id := testGUID(1)
	query := func(ttl, hops uint8) *gnutella.Query {
		return &gnutella.Query{ID: id, TTL: ttl, Hops: hops, Text: "needle"}
	}
	type step struct {
		do   func(c *core) []send
		want []send
	}
	for _, tc := range []struct {
		name  string
		opts  Options
		steps []step
		check func(t *testing.T, c *core)
	}{
		{name: "first copy", steps: []step{
			// The local hit goes back first, at the copy's Hops; the copy
			// goes on to every other peer with one hop fewer left.
			{func(c *core) []send { return c.query(0, query(3, 1), epoch, nil) },
				[]send{{0, needleHit(id, 1)}, copyTo(1, id, 2, 2), copyTo(2, id, 2, 2)}},
		}},
		{name: "duplicate at TTL 1, then at TTL 3", steps: []step{
			{func(c *core) []send { return c.query(0, query(1, 2), epoch, nil) }, []send{{0, needleHit(id, 2)}}},
			{func(c *core) []send { return c.query(1, query(1, 2), epoch, nil) }, nil},
			// The first copy with hops left is forwarded, once, and not
			// answered again; the first copy's sender is a candidate too.
			{func(c *core) []send { return c.query(1, query(3, 1), epoch, nil) },
				[]send{copyTo(0, id, 2, 2), copyTo(2, id, 2, 2)}},
			{func(c *core) []send { return c.query(2, query(3, 1), epoch, nil) }, nil},
		}},
		{name: "user query sourced with the node's TTL", steps: []step{
			{func(c *core) []send { return c.query(clientLink(0), query(1, 0), epoch, nil) },
				[]send{{clientLink(0), needleHit(id, 0)}, copyTo(0, id, 7, 0), copyTo(1, id, 7, 0), copyTo(2, id, 7, 0)}},
			{func(c *core) []send { return c.query(ownLink, query(1, 0), epoch, nil) }, nil},
		}},
		{name: "unsolicited hit", steps: []step{
			{func(c *core) []send { return c.respond(1, frameOf(needleHit(id, 0)), nil) }, nil},
		}, check: func(t *testing.T, c *core) {
			if got := c.metrics.HitsUnsolicited.Value(); got != 1 {
				t.Errorf("HitsUnsolicited = %d, want 1", got)
			}
		}},
		{name: "forged hit under Trust", opts: Options{Trust: true}, steps: []step{
			{func(c *core) []send { return c.query(2, query(2, 0), epoch, nil) },
				[]send{{2, needleHit(id, 0)}, copyTo(0, id, 1, 1), copyTo(1, id, 1, 1)}},
			{func(c *core) []send { return c.respond(1, frameOf(forgeQueryHit(query(1, 1))), nil) }, nil},
			{func(c *core) []send { return c.respond(0, frameOf(needleHit(id, 1)), nil) }, []send{{2, needleHit(id, 2)}}},
		}, check: func(t *testing.T, c *core) {
			if got := c.metrics.HitsForged.Value(); got != 1 {
				t.Errorf("HitsForged = %d, want 1", got)
			}
			if forger, honest := c.book.Score(1), c.book.Score(0); forger >= honest {
				t.Errorf("forger scores %.3f, honest peer %.3f", forger, honest)
			}
		}},
		{name: "hit for a departed client", steps: []step{
			{func(c *core) []send { return c.query(clientLink(0), query(1, 0), epoch, nil) },
				[]send{{clientLink(0), needleHit(id, 0)}, copyTo(0, id, 7, 0), copyTo(1, id, 7, 0), copyTo(2, id, 7, 0)}},
			{func(c *core) []send { c.leave(0); return c.respond(1, frameOf(needleHit(id, 0)), nil) }, nil},
		}},
		{name: "Busy relayed with Hops+1", steps: []step{
			{func(c *core) []send { return c.query(0, query(2, 1), epoch, nil) },
				[]send{{0, needleHit(id, 1)}, copyTo(1, id, 1, 2), copyTo(2, id, 1, 2)}},
			{func(c *core) []send { return c.respond(1, frameOf(&gnutella.Busy{ID: id, TTL: 1, Hops: 2}), nil) },
				[]send{{0, &gnutella.Busy{ID: id, TTL: 1, Hops: 3}}}},
		}, check: func(t *testing.T, c *core) {
			if got := c.metrics.BusyReceived.Value(); got != 1 {
				t.Errorf("BusyReceived = %d, want 1", got)
			}
		}},
		{name: "own search keeps Hops", steps: []step{
			{func(c *core) []send { return c.query(ownLink, query(0, 0), epoch, nil) },
				[]send{{ownLink, needleHit(id, 0)}, copyTo(0, id, 7, 0), copyTo(1, id, 7, 0), copyTo(2, id, 7, 0)}},
			{func(c *core) []send { return c.respond(1, frameOf(&gnutella.Busy{ID: id, TTL: 1, Hops: 0}), nil) },
				[]send{{ownLink, &gnutella.Busy{ID: id, TTL: 1, Hops: 0}}}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCore(tc.opts)
			for i, s := range tc.steps {
				if got := decoded(s.do(c)); !reflect.DeepEqual(got, s.want) {
					t.Errorf("step %d sent%s\nwant%s", i, sendsString(got), sendsString(s.want))
				}
			}
			if tc.check != nil {
				tc.check(t, c)
			}
		})
	}
}

// frameOf is m as a peer link's reader hands it to the core: its frame,
// read into a Frame of its own.
func frameOf(m gnutella.Message) *gnutella.Frame {
	var wire bytes.Buffer
	f := new(gnutella.Frame)
	if err := gnutella.WriteMessage(&wire, m); err != nil {
		panic(err)
	}
	if err := gnutella.ReadFrame(&wire, 0, f); err != nil {
		panic(err)
	}
	return f
}

// decoded is sends with every Frame decoded, as the link it goes out on
// reads it.
func decoded(sends []send) []send {
	for i, s := range sends {
		if f, ok := s.m.(*gnutella.Frame); ok {
			m, err := f.Decode()
			if err != nil {
				panic(err)
			}
			sends[i].m = m
		}
	}
	return sends
}

// sendsString prints sends for a failure message.
func sendsString(sends []send) string {
	var b strings.Builder
	for _, s := range sends {
		fmt.Fprintf(&b, "\n\tlink %d: %+v", s.to, s.m)
	}
	return b.String()
}

// TestCoreExpire: an own search's route outlives routeTTL, since the search
// deletes it when its window closes; any other route goes once it is older
// than routeTTL.
func TestCoreExpire(t *testing.T) {
	c := testCore(Options{})
	own, relayed := testGUID(1), testGUID(2)
	c.query(ownLink, &gnutella.Query{ID: own, Text: "x"}, epoch, nil)
	c.query(0, &gnutella.Query{ID: relayed, TTL: 2, Text: "x"}, epoch, nil)
	c.expire(epoch.Add(routeTTL))
	if len(c.routes) != 2 {
		t.Fatalf("%d routes left at routeTTL, want both", len(c.routes))
	}
	c.expire(epoch.Add(routeTTL + time.Nanosecond))
	if _, ok := c.routes[own]; !ok || len(c.routes) != 1 {
		t.Fatalf("routes past routeTTL = %v, want only the own search's", c.routes)
	}
}

// TestCoreHitFitsReader: one owner with more matching files than a frame can
// carry gets a hit truncated to the reader's payload limit, not one the
// receiving link rejects as too large.
func TestCoreHitFitsReader(t *testing.T) {
	c := testCore(Options{})
	files := make([]gnutella.MetadataRecord, 56000)
	for i := range files {
		files[i] = gnutella.MetadataRecord{FileIndex: uint32(i), Title: "needle"}
	}
	c.join(1, needleOwner, files)
	hit := c.search(testGUID(1), []string{"needle"})
	var wire bytes.Buffer
	if err := gnutella.WriteMessage(&wire, hit); err != nil {
		t.Fatal(err)
	}
	m, err := gnutella.ReadMessage(&wire)
	if err != nil {
		t.Fatalf("reading the hit back: %v", err)
	}
	back := m.(*gnutella.QueryHit)
	count := 0
	for _, r := range back.Responders {
		count += int(r.ResultCount)
	}
	if count != len(back.Results) || len(back.Results) < 55000 {
		t.Errorf("%d results, responder counts sum to %d", len(back.Results), count)
	}
}

// TestCoreRelayAllocs guards what one relay to three peers allocates: the
// route, the query's terms (tokenized once for the index, the strategy and
// learning), the index's miss, and one copy shared by every send. Measured
// at 4 on go1.24; a fifth would be a new allocation on every query copy a
// node handles, such as a per-send neighbor status or a peer snapshot.
func TestCoreRelayAllocs(t *testing.T) {
	c := testCore(Options{})
	c.addPeer(3)
	q := &gnutella.Query{TTL: 3, Hops: 1, Text: "miss"}
	out := make([]send, 0, 8)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		q.ID = testGUID(i)
		out = c.query(0, q, epoch, out[:0])
		delete(c.routes, q.ID)
	})
	if len(out) != 3 {
		t.Fatalf("relayed to %d peers, want 3", len(out))
	}
	t.Logf("%v allocs per relay", allocs)
	if allocs > 4 {
		t.Errorf("%v allocs per relay, want at most 4", allocs)
	}
}

// TestCoreRespondAllocs: relaying a hit one hop back allocates nothing. The
// core owns the frame it is handed and increments its Hops in place, and the
// send goes into the caller's list.
func TestCoreRespondAllocs(t *testing.T) {
	c := testCore(Options{})
	id := testGUID(1)
	c.query(0, &gnutella.Query{ID: id, TTL: 3, Hops: 1, Text: "miss"}, epoch, nil)
	hit := frameOf(needleHit(id, 0))
	out := make([]send, 0, 1)
	allocs := testing.AllocsPerRun(200, func() {
		out = c.respond(1, hit, out[:0])
	})
	if len(out) != 1 || out[0].to != 0 || out[0].m != hit {
		t.Fatalf("relayed%s, want the hit itself on link 0", sendsString(out))
	}
	if allocs != 0 {
		t.Errorf("%v allocs per relayed hit, want 0", allocs)
	}
}
