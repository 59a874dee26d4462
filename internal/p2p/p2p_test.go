package p2p

import (
	"bufio"
	"fmt"
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/metrics"
	"spnet/internal/transfer"
)

// startNode spins up a node on a loopback port.
func startNode(t *testing.T, opts Options) *Node {
	t.Helper()
	n := NewNode(opts)
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// lineTopology builds n nodes connected in a path: 0-1-2-…
func lineTopology(t *testing.T, count int, opts Options) []*Node {
	t.Helper()
	nodes := make([]*Node, count)
	for i := range nodes {
		nodes[i] = startNode(t, opts)
	}
	for i := 1; i < count; i++ {
		if err := nodes[i].ConnectPeer(nodes[i-1].Addr()); err != nil {
			t.Fatalf("ConnectPeer: %v", err)
		}
	}
	return nodes
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClientJoinAndLocalSearch(t *testing.T) {
	n := startNode(t, Options{})
	cl, err := DialClient(n.Addr(), []SharedFile{
		{Index: 1, Title: "Free Jazz Classics"},
		{Index: 2, Title: "Rock Anthems"},
	})
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer cl.Close()
	waitFor(t, "join indexed", func() bool { return n.Stats().IndexedFiles == 2 })

	results, err := cl.Search("jazz", 200*time.Millisecond)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 1 || results[0].FileIndex != 1 {
		t.Fatalf("results = %+v, want file 1", results)
	}
	if results[0].Title != "free jazz classics" {
		t.Errorf("title = %q", results[0].Title)
	}
	// Conjunctive query.
	if r, _ := cl.Search("rock classics", 200*time.Millisecond); len(r) != 0 {
		t.Errorf("conjunction matched %+v", r)
	}
}

func TestQueryFloodsAcrossOverlay(t *testing.T) {
	nodes := lineTopology(t, 4, Options{TTL: 7})

	// A client with the target file sits at the far end.
	provider, err := DialClient(nodes[3].Addr(), []SharedFile{
		{Index: 42, Title: "distributed systems lecture"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer provider.Close()
	waitFor(t, "provider indexed", func() bool { return nodes[3].Stats().IndexedFiles == 1 })

	// A client at the near end queries; the flood must cross 3 hops and the
	// response must travel the reverse path back.
	seeker, err := DialClient(nodes[0].Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer seeker.Close()
	results, err := seeker.Search("lecture", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].FileIndex != 42 {
		t.Fatalf("results = %+v, want file 42 from across the overlay", results)
	}
	if results[0].OwnerPort == 0 {
		t.Error("responder address not carried")
	}
}

func TestTTLBoundsReach(t *testing.T) {
	// A 4-node path with TTL 2: node 0's queries reach nodes 1 and 2 but
	// not node 3.
	nodes := lineTopology(t, 4, Options{TTL: 2})
	far, err := DialClient(nodes[3].Addr(), []SharedFile{{Index: 9, Title: "rare gem"}})
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	near, err := DialClient(nodes[2].Addr(), []SharedFile{{Index: 8, Title: "common gem"}})
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	waitFor(t, "both indexed", func() bool {
		return nodes[3].Stats().IndexedFiles == 1 && nodes[2].Stats().IndexedFiles == 1
	})

	results, err := nodes[0].Search("gem", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %+v, want exactly the TTL-reachable file", results)
	}
	if results[0].FileIndex != 8 {
		t.Errorf("got file %d, want 8 (the reachable one)", results[0].FileIndex)
	}
}

func TestClientLeaveRemovesMetadata(t *testing.T) {
	n := startNode(t, Options{})
	cl, err := DialClient(n.Addr(), []SharedFile{{Index: 1, Title: "fleeting file"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "indexed", func() bool { return n.Stats().IndexedFiles == 1 })
	cl.Close()
	waitFor(t, "metadata removed", func() bool { return n.Stats().IndexedFiles == 0 })
	if got := n.Stats().Clients; got != 0 {
		t.Errorf("clients = %d, want 0", got)
	}
}

func TestUpdatesMaintainIndex(t *testing.T) {
	n := startNode(t, Options{})
	cl, err := DialClient(n.Addr(), []SharedFile{{Index: 1, Title: "first song"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "joined", func() bool { return n.Stats().IndexedFiles == 1 })

	if err := cl.Update(gnutella.OpInsert, SharedFile{Index: 2, Title: "second song"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "insert", func() bool { return n.Stats().IndexedFiles == 2 })

	if err := cl.Update(gnutella.OpModify, SharedFile{Index: 1, Title: "renamed tune"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "modify", func() bool {
		r, _ := cl.Search("renamed", 100*time.Millisecond)
		return len(r) == 1
	})
	if r, _ := cl.Search("first", 100*time.Millisecond); len(r) != 0 {
		t.Errorf("old title still matches: %+v", r)
	}

	if err := cl.Update(gnutella.OpDelete, SharedFile{Index: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delete", func() bool { return n.Stats().IndexedFiles == 1 })
}

func TestDuplicateQueriesDropped(t *testing.T) {
	// A triangle: node 0's query reaches 1 and 2 directly and over the
	// longer way; each node must respond exactly once.
	nodes := lineTopology(t, 3, Options{TTL: 7})
	if err := nodes[0].ConnectPeer(nodes[2].Addr()); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		cl, err := DialClient(n.Addr(), []SharedFile{
			{Index: uint32(i), Title: fmt.Sprintf("shared track %d", i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
	}
	waitFor(t, "all indexed", func() bool {
		for _, n := range nodes {
			if n.Stats().IndexedFiles != 1 {
				return false
			}
		}
		return true
	})
	results, err := nodes[0].Search("shared", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want exactly 3 (duplicates must be dropped): %+v",
			len(results), results)
	}
}

// TestDuplicateForwardedOnceTTLAllows: a node forwards the first copy of a
// query that has hops left, even when a copy ending there (TTL 1) came
// first, and drops every other copy. In a k-redundant cluster a co-partner's
// relay can beat the source's own copy to a neighbor; dropping the source's
// copy would stop the flood one hop short.
func TestDuplicateForwardedOnceTTLAllows(t *testing.T) {
	n := startNode(t, Options{TTL: 7, HeartbeatInterval: -1})
	in := dialRawPeer(t, n.Addr())
	out := dialRawPeer(t, n.Addr())
	waitFor(t, "both links up", func() bool { return n.Stats().Peers == 2 })

	id, sentinel := testGUID(1), testGUID(2)
	for i, q := range []*gnutella.Query{
		{ID: id, TTL: 1, Hops: 1, Text: "x"}, // handled, not forwarded
		{ID: id, TTL: 1, Hops: 1, Text: "x"}, // duplicate: dropped
		{ID: id, TTL: 2, Text: "x"},          // first with hops left: forwarded
		{ID: id, TTL: 2, Text: "x"},          // duplicate again: dropped
		{ID: id, TTL: 3, Text: "x"},          // already forwarded: dropped
		{ID: sentinel, TTL: 2, Text: "x"},    // marks the end of the stream
	} {
		if err := gnutella.WriteMessage(in, q); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "query handled", func() bool { return n.Stats().QueriesHandled == int64(i+1) })
	}

	var got []gnutella.Query
	out.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(out)
	for len(got) == 0 || got[len(got)-1].ID != sentinel {
		msg, err := gnutella.ReadMessage(br)
		if err != nil {
			t.Fatalf("after %d forwarded queries: %v", len(got), err)
		}
		if q, ok := msg.(*gnutella.Query); ok {
			got = append(got, *q)
		}
	}
	if len(got) != 2 || got[0].ID != id || got[0].TTL != 1 || got[0].Hops != 1 {
		t.Fatalf("forwarded %+v, want the TTL-2 copy once as TTL 1, hops 1, then the sentinel", got)
	}
}

func TestMaxClientsRefused(t *testing.T) {
	n := startNode(t, Options{MaxClients: 1})
	first, err := DialClient(n.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := DialClient(n.Addr(), nil); err == nil {
		t.Fatal("second client admitted past MaxClients")
	}
}

func TestConnectPeerErrors(t *testing.T) {
	n := startNode(t, Options{})
	if err := n.ConnectPeer("127.0.0.1:1"); err == nil {
		t.Error("dial to dead port succeeded")
	}
	full := startNode(t, Options{MaxPeers: 1})
	ok := startNode(t, Options{})
	if err := ok.ConnectPeer(full.Addr()); err != nil {
		t.Fatal(err)
	}
	other := startNode(t, Options{})
	waitFor(t, "first peer registered", func() bool { return full.Stats().Peers == 1 })
	if err := other.ConnectPeer(full.Addr()); err == nil {
		t.Error("peer admitted past MaxPeers")
	}
}

func TestNodeCloseIsClean(t *testing.T) {
	n := NewNode(Options{})
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl, err := DialClient(n.Addr(), []SharedFile{{Index: 1, Title: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := n.Search("x", 50*time.Millisecond); err == nil {
		t.Error("Search on closed node succeeded")
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	n := startNode(t, Options{})
	results, err := n.Search("   ", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("empty query matched %+v", results)
	}
}

// TestNodeCloseDuringPacedTransfer: Close cuts a transfer-pacing wait short
// instead of waiting it out. At 1 KiB/s with 16 KiB chunks the bucket holds
// two chunks, so the third waits about 16 s.
func TestNodeCloseDuringPacedTransfer(t *testing.T) {
	const chunk = 16 << 10
	store := transfer.NewStore(transfer.StoreOptions{ChunkSize: chunk, MinFileSize: 8 * chunk, MaxFileSize: 8 * chunk})
	f := store.Add("paced lecture")
	n := NewNode(Options{Content: store, TransferRate: 1024, HeartbeatInterval: -1})
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	fetched := make(chan error, 1)
	go func() {
		_, err := transfer.Fetch([]transfer.Source{{Addr: n.Addr(), FileIndex: f.Index}}, transfer.Options{
			DialTimeout: time.Second,
			Backoff:     link.Backoff{Initial: 10 * time.Millisecond, Max: 10 * time.Millisecond},
		})
		fetched <- err
	}()
	served := n.Metrics().TransferBytes[metrics.DirOut]
	waitFor(t, "two chunks served", func() bool { return served.Value() == 2*chunk })

	start := time.Now()
	n.Close()
	if el := time.Since(start); el > time.Second {
		t.Errorf("Close took %v with a paced chunk pending, want under 1s", el)
	}
	select {
	case err := <-fetched:
		if err == nil {
			t.Error("fetch completed from a node closed mid-transfer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch still running 5s after its only source closed")
	}
}
