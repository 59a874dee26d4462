package p2p

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/metrics"
)

// TestTelemetryScrape boots a real super-peer, drives traffic through it,
// and scrapes its telemetry surface over HTTP — the same handler spnet-node
// serves for -telemetry.
func TestTelemetryScrape(t *testing.T) {
	node := NewNode(Options{HeartbeatInterval: -1})
	if err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	cl, err := DialClient(node.Addr(), []SharedFile{{Index: 1, Title: "needle in haystack"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	results, err := cl.Search("needle", 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}

	srv := httptest.NewServer(metrics.Handler(node.Metrics().Registry()))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	vals, err := metrics.ParsePrometheus(strings.NewReader(get("/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	for key, min := range map[string]float64{
		metrics.SeriesKey(metrics.MetricMessages, metrics.Label{Name: "type", Value: "query"}, metrics.Label{Name: "dir", Value: "in"}):     1,
		metrics.SeriesKey(metrics.MetricMessages, metrics.Label{Name: "type", Value: "response"}, metrics.Label{Name: "dir", Value: "out"}): 1,
		metrics.SeriesKey(metrics.MetricMessageBytes, metrics.Label{Name: "type", Value: "join"}, metrics.Label{Name: "dir", Value: "in"}):  1,
		metrics.SeriesKey(metrics.MetricConnBytes, metrics.Label{Name: "dir", Value: "in"}):                                                 1,
		metrics.SeriesKey(metrics.MetricConnBytes, metrics.Label{Name: "dir", Value: "out"}):                                                1,
		metrics.SeriesKey(metrics.MetricConnsOpen):      1,
		metrics.SeriesKey(metrics.MetricProcUnits):      0.1,
		metrics.SeriesKey(metrics.MetricQueriesHandled): 1,
	} {
		if vals[key] < min {
			t.Errorf("scraped %s = %v, want >= %v", key, vals[key], min)
		}
	}

	var vars map[string]any
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars not valid JSON: %v", err)
	}
	if _, ok := vars["spnet"].(map[string]any); !ok {
		t.Error("/debug/vars missing spnet object")
	}

	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ does not list profiles")
	}
}

// TestStatsShedSourceSplit drives the overload ladder from both source
// classes and checks the Stats split: a client over its token bucket counts
// as RateLimited; a peer query over the inflight cap counts as
// QueriesShedPeer, not QueriesShedClient.
func TestStatsShedSourceSplit(t *testing.T) {
	node := NewNode(Options{
		HeartbeatInterval: -1,
		ClientQueryRate:   0.0001, // bucket holds 1 token: second query sheds
		ClientQueryBurst:  1,
	})
	if err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	cl, err := DialClient(node.Addr(), []SharedFile{{Index: 1, Title: "alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Search("alpha", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	out, err := cl.SearchDetailed("alpha", 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if out.Busy == 0 {
		t.Error("rate-limited search saw no Busy response")
	}

	st := node.Stats()
	if st.RateLimited != 1 {
		t.Errorf("RateLimited = %d, want 1", st.RateLimited)
	}
	if st.QueriesShedClient != 0 || st.QueriesShedPeer != 0 {
		t.Errorf("shed split = client %d / peer %d, want 0/0 (rate limit is separate)",
			st.QueriesShedClient, st.QueriesShedPeer)
	}

	// Peer-sourced shed: drop the inflight cap to zero-ish by filling it is
	// racy; instead check the metric wiring directly through enqueueQuery's
	// peer path with MaxInflight=0 on a fresh node.
	node2 := NewNode(Options{HeartbeatInterval: -1, MaxInflight: 1})
	if err := node2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	m := node2.Metrics()
	m.Shed[metrics.ShedInflight][metrics.SourcePeer].Inc()
	m.Shed[metrics.ShedQueue][metrics.SourcePeer].Inc()
	m.Shed[metrics.ShedQueue][metrics.SourceClient].Inc()
	st2 := node2.Stats()
	if st2.QueriesShedPeer != 2 || st2.QueriesShedClient != 1 {
		t.Errorf("shed split = client %d / peer %d, want 1/2", st2.QueriesShedClient, st2.QueriesShedPeer)
	}
	if st2.QueriesShed != 3 {
		t.Errorf("QueriesShed = %d, want 3", st2.QueriesShed)
	}
}

// TestClientMetering checks the optional client-side meter: queries out,
// responses in, raw bytes both ways.
func TestClientMetering(t *testing.T) {
	node := NewNode(Options{HeartbeatInterval: -1})
	if err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	nm := metrics.NewNodeMetrics()
	cl, err := DialClientOptions(DialOptions{Addrs: []string{node.Addr()}, Metrics: nm},
		[]SharedFile{{Index: 7, Title: "beta melody"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Search("melody", 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	if got := nm.Load.Messages(metrics.ClassJoin, metrics.DirOut); got != 1 {
		t.Errorf("client join out = %d, want 1", got)
	}
	if got := nm.Load.Messages(metrics.ClassQuery, metrics.DirOut); got != 1 {
		t.Errorf("client query out = %d, want 1", got)
	}
	if got := nm.Load.Messages(metrics.ClassResponse, metrics.DirIn); got != 1 {
		t.Errorf("client response in = %d, want 1", got)
	}
	if nm.ConnBytes[metrics.DirOut].Value() == 0 || nm.ConnBytes[metrics.DirIn].Value() == 0 {
		t.Error("client raw conn bytes not counted")
	}
}

// TestNodeConnBytesConserved is the node-side twin of transfer's
// TestFetchConnBytesCountHello: every byte on a node's sockets is a hello or
// reply line or a frame its Table 2 meter charged, less the Ethernet/TCP/IP
// framing each charge folds in. A client, a peer and a controller link in and
// trade frames, then the node closes, sending the controller its bye.
func TestNodeConnBytesConserved(t *testing.T) {
	n := startNode(t, Options{HeartbeatInterval: -1})
	cl, err := DialClient(n.Addr(), []SharedFile{{Index: 1, Title: "needle"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	peer := startNode(t, Options{HeartbeatInterval: -1})
	if err := peer.ConnectPeer(n.Addr()); err != nil {
		t.Fatal(err)
	}
	ctl, err := link.Dialer(nil).Open(n.Addr(), link.Control, 5*time.Second, link.Framing{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if m, err := ctl.Recv(time.Now().Add(5 * time.Second)); err != nil || m.Type() != gnutella.TypeRegister {
		t.Fatalf("control link read %v, %v; want the node's Register", m, err)
	}
	waitFor(t, "client and peer links", func() bool {
		st := n.Stats()
		return st.Clients == 1 && st.Peers == 1
	})
	if r, err := cl.Search("needle", 200*time.Millisecond); err != nil || len(r) != 1 {
		t.Fatalf("search = %v, %v; want one result", r, err)
	}
	n.Close()

	nm := n.Metrics()
	for _, tc := range []struct {
		dir    metrics.Dir
		hellos int
	}{
		{metrics.DirIn, len(link.Client) + len(link.Peer) + len(link.Control) + 3},
		{metrics.DirOut, 3 * (len(link.OK) + 1)},
	} {
		var frames int64
		for c := 0; c < metrics.NumClasses; c++ {
			k := metrics.Class(c)
			frames += nm.Load.Bytes(k, tc.dir) - nm.Load.Messages(k, tc.dir)*gnutella.FrameOverhead
		}
		want := frames + int64(tc.hellos)
		if got := nm.ConnBytes[tc.dir].Value(); got != want {
			t.Errorf("conn bytes %v = %d, want %d (frames %d + hello lines %d)", tc.dir, got, want, frames, tc.hellos)
		}
	}
}
