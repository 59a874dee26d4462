package control

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/faults"
	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/metrics"
	"spnet/internal/p2p"
	"spnet/internal/stats"
)

// startNode spins up a p2p node with a control-plane identity.
func startNode(t *testing.T, id string, opts p2p.Options) *p2p.Node {
	t.Helper()
	n := p2p.NewNode(opts)
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	n.SetIdentity(id, "")
	t.Cleanup(func() { n.Close() })
	return n
}

// waitFor polls until cond holds or the deadline passes. Deadlines are
// generous: CI runs this under -race on one CPU.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testOptions returns controller options tuned for fast tests.
func testOptions(nodes []NodeConfig) Options {
	return Options{
		Nodes:          nodes,
		ScrapeInterval: 40 * time.Millisecond,
		RPCTimeout:     300 * time.Millisecond,
		DialTimeout:    300 * time.Millisecond,
		Backoff:        link.Backoff{Initial: 20 * time.Millisecond, Max: 100 * time.Millisecond},
		Seed:           7,
		ClientCapacity: 5,
		BaseTTL:        7,
	}
}

func hasEvent(c *Controller, typ EventType, node string) bool {
	for _, e := range c.Events() {
		if e.Type == typ && e.Node == node {
			return true
		}
	}
	return false
}

func findEvent(c *Controller, typ EventType, node string) (Event, bool) {
	for _, e := range c.Events() {
		if e.Type == typ && e.Node == node {
			return e, true
		}
	}
	return Event{}, false
}

func TestPromoteOnDeathAndRestoreOnRecovery(t *testing.T) {
	n0 := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	n1 := startNode(t, "sp-0-1", p2p.Options{MaxClients: 5, TTL: 7})
	c := New(testOptions([]NodeConfig{
		{ID: "sp-0-0", Addr: n0.Addr(), Cluster: 0, Partner: 0},
		{ID: "sp-0-1", Addr: n1.Addr(), Cluster: 0, Partner: 1},
	}))
	c.Start()
	defer c.Close()

	waitFor(t, "both registered", func() bool {
		return hasEvent(c, EvRegistered, "sp-0-0") && hasEvent(c, EvRegistered, "sp-0-1")
	})

	// Kill the first partner: graceful Close sends a RegisterBye, so the
	// controller should see a deregistration, declare the node dead, and
	// promote the survivor to double capacity.
	addr0 := n0.Addr()
	n0.Close()
	waitFor(t, "dead declared", func() bool { return hasEvent(c, EvDead, "sp-0-0") })
	if e, ok := findEvent(c, EvDead, "sp-0-0"); ok && !strings.Contains(e.Detail, "deregistered") {
		t.Errorf("dead detail = %q, want graceful deregistration", e.Detail)
	}
	waitFor(t, "survivor promoted", func() bool {
		_, _, maxClients := n1.ControlState()
		return maxClients == 10
	})
	waitFor(t, "promotion acked", func() bool { return hasEvent(c, EvAcked, "sp-0-1") })

	// Bring the dead partner back on its old address: the controller should
	// notice the recovery and walk the survivor back to baseline capacity.
	n0b := p2p.NewNode(p2p.Options{MaxClients: 5, TTL: 7})
	var rebindErr error
	for deadline := time.Now().Add(5 * time.Second); ; {
		if rebindErr = n0b.Listen(addr0); rebindErr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Skipf("could not rebind %s: %v", addr0, rebindErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
	n0b.SetIdentity("sp-0-0", "")
	defer n0b.Close()
	waitFor(t, "recovery", func() bool { return hasEvent(c, EvRecovered, "sp-0-0") })
	waitFor(t, "survivor restored", func() bool {
		_, _, maxClients := n1.ControlState()
		return maxClients == 5
	})
}

func TestEpochIdempotencyAndRestartRecovery(t *testing.T) {
	n := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	cfg := []NodeConfig{{ID: "sp-0-0", Addr: n.Addr()}}

	a := New(testOptions(cfg))
	a.Start()
	waitFor(t, "registered with first controller", func() bool { return hasEvent(a, EvRegistered, "sp-0-0") })

	// Epoch 1: set TTL 5.
	a.mu.Lock()
	st := a.nodes["sp-0-0"]
	a.mu.Unlock()
	a.pushDirective(st, &gnutella.Directive{Action: gnutella.ActionSetTTL, TTL: 5}, nil)
	waitFor(t, "ttl applied", func() bool {
		epoch, ttl, _ := n.ControlState()
		return epoch == 1 && ttl == 5
	})

	// A replay of epoch 1 with different contents must be rejected as stale
	// — and the push still succeeds from the controller's point of view
	// (idempotent delivery).
	if err := st.agent.push(&gnutella.Directive{Epoch: 1, Action: gnutella.ActionSetTTL, TTL: 3}); err != nil {
		t.Fatalf("stale push: %v", err)
	}
	if _, ttl, _ := n.ControlState(); ttl != 5 {
		t.Fatalf("stale directive applied: ttl = %d, want 5", ttl)
	}
	a.Close()

	// A restarted controller must rebuild its epoch watermark from the
	// node's Register announcement, so its next directive is fresh.
	b := New(testOptions(cfg))
	b.Start()
	defer b.Close()
	waitFor(t, "re-registered with new controller", func() bool { return hasEvent(b, EvRegistered, "sp-0-0") })
	waitFor(t, "epoch adopted", func() bool { return b.Epoch() >= 1 })

	b.mu.Lock()
	st = b.nodes["sp-0-0"]
	b.mu.Unlock()
	b.pushDirective(st, &gnutella.Directive{Action: gnutella.ActionSetTTL, TTL: 4}, nil)
	waitFor(t, "post-restart directive applied", func() bool {
		epoch, ttl, _ := n.ControlState()
		return epoch == 2 && ttl == 4
	})
}

func TestReRegistrationStormPromotesPartner(t *testing.T) {
	n0 := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	n1 := startNode(t, "sp-0-1", p2p.Options{MaxClients: 5, TTL: 7})
	c := New(testOptions([]NodeConfig{
		{ID: "sp-0-0", Addr: n0.Addr(), Cluster: 0},
		{ID: "sp-0-1", Addr: n1.Addr(), Cluster: 0},
	}))
	c.Start()
	defer c.Close()
	waitFor(t, "both registered", func() bool {
		return hasEvent(c, EvRegistered, "sp-0-0") && hasEvent(c, EvRegistered, "sp-0-1")
	})

	// Fake a re-registration storm on node 0's link: the controller must
	// treat a flapping node like a dead one and promote its partner.
	c.mu.Lock()
	ag := c.nodes["sp-0-0"].agent
	c.mu.Unlock()
	ag.mu.Lock()
	ag.registers += 5
	ag.mu.Unlock()

	waitFor(t, "storm declared dead", func() bool { return hasEvent(c, EvDead, "sp-0-0") })
	if e, _ := findEvent(c, EvDead, "sp-0-0"); !strings.Contains(e.Detail, "storm") {
		t.Errorf("dead detail = %q, want storm", e.Detail)
	}
	waitFor(t, "partner promoted", func() bool {
		_, _, maxClients := n1.ControlState()
		return maxClients == 10
	})
	// The storm subsides (the link is in fact healthy), so the controller
	// should recover the node and walk the partner back down.
	waitFor(t, "storm recovery", func() bool { return hasEvent(c, EvRecovered, "sp-0-0") })
	waitFor(t, "partner restored", func() bool {
		_, _, maxClients := n1.ControlState()
		return maxClients == 5
	})
}

func TestControllerPartitionGracefulDegradation(t *testing.T) {
	t.Parallel() // mostly ack timeouts and backoff: overlap them with other waits
	fc := faults.NewController(3)
	n0 := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	n1 := startNode(t, "sp-0-1", p2p.Options{MaxClients: 5, TTL: 7})
	opts := testOptions([]NodeConfig{
		{ID: "sp-0-0", Addr: n0.Addr(), Cluster: 0},
		{ID: "sp-0-1", Addr: n1.Addr(), Cluster: 0},
	})
	opts.Dial = fc.Dialer("controller")
	c := New(opts)
	c.Start()
	defer c.Close()
	waitFor(t, "both registered", func() bool {
		return hasEvent(c, EvRegistered, "sp-0-0") && hasEvent(c, EvRegistered, "sp-0-1")
	})

	// Partition the controller from the world. Existing control links
	// blackhole (writes vanish), new dials fail fast.
	fc.Isolate("controller")

	// A directive pushed into the partition must fail — and leave the node
	// exactly on its last-known configuration.
	c.mu.Lock()
	st := c.nodes["sp-0-0"]
	c.mu.Unlock()
	epochBefore := c.Epoch()
	c.pushDirective(st, &gnutella.Directive{Action: gnutella.ActionSetTTL, TTL: 3}, nil)
	waitFor(t, "push failure surfaces", func() bool { return hasEvent(c, EvPushFailed, "sp-0-0") })
	if _, ttl, maxClients := n0.ControlState(); ttl != 7 || maxClients != 5 {
		t.Fatalf("node config changed during partition: ttl=%d maxClients=%d", ttl, maxClients)
	}
	if c.Epoch() == epochBefore {
		t.Fatalf("push should have consumed an epoch")
	}

	// Nodes must keep serving the query path while the controller is dark.
	cl, err := p2p.DialClient(n0.Addr(), []p2p.SharedFile{{Index: 1, Title: "partition survival guide"}})
	if err != nil {
		t.Fatalf("DialClient during partition: %v", err)
	}
	defer cl.Close()
	waitFor(t, "client indexed during partition", func() bool {
		res, err := cl.Search("partition", 200*time.Millisecond)
		return err == nil && len(res) == 1
	})

	// During the partition the controller may declare nodes dead and try to
	// promote — every such push fails, so node configs must never move.
	time.Sleep(400 * time.Millisecond)
	if _, ttl, maxClients := n0.ControlState(); ttl != 7 || maxClients != 5 {
		t.Fatalf("sp-0-0 config thrashed during partition: ttl=%d maxClients=%d", ttl, maxClients)
	}
	if _, ttl, maxClients := n1.ControlState(); ttl != 7 || maxClients != 5 {
		t.Fatalf("sp-0-1 config thrashed during partition: ttl=%d maxClients=%d", ttl, maxClients)
	}

	// Heal. Links re-establish, any spurious deaths recover, and control
	// works again end to end.
	healAt := len(c.Events())
	fc.Restore("controller")
	waitFor(t, "links re-established", func() bool {
		for _, e := range c.Events()[healAt:] {
			if e.Type == EvRegistered && e.Node == "sp-0-0" {
				return true
			}
		}
		return false
	})
	waitFor(t, "fleet converged after heal", func() bool {
		for _, s := range c.Status() {
			if s.Dead || !s.LinkUp {
				return false
			}
		}
		_, ttl0, max0 := n0.ControlState()
		_, ttl1, max1 := n1.ControlState()
		return ttl0 == 7 && max0 == 5 && ttl1 == 7 && max1 == 5
	})

	c.mu.Lock()
	st = c.nodes["sp-0-1"]
	c.mu.Unlock()
	c.pushDirective(st, &gnutella.Directive{Action: gnutella.ActionSetTTL, TTL: 6}, nil)
	waitFor(t, "post-heal directive applied", func() bool {
		_, ttl, _ := n1.ControlState()
		return ttl == 6
	})
}

// fakeTelemetry serves a Prometheus exposition whose query-in byte counter
// advances by `step` bytes per scrape, letting tests dial measured load up
// and down at will.
type fakeTelemetry struct {
	mu    sync.Mutex
	total float64
	step  float64
	srv   *http.Server
	addr  string
}

func newFakeTelemetry(t *testing.T, step float64) *fakeTelemetry {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("telemetry listen: %v", err)
	}
	f := &fakeTelemetry{step: step, addr: ln.Addr().String()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.total += f.step
		v := f.total
		f.mu.Unlock()
		key := metrics.SeriesKey(metrics.MetricMessageBytes,
			metrics.Label{Name: "type", Value: metrics.ClassQuery.String()},
			metrics.Label{Name: "dir", Value: metrics.DirIn.String()})
		fmt.Fprintf(w, "%s %g\n", key, v)
	})
	f.srv = &http.Server{Handler: mux}
	go f.srv.Serve(ln)
	t.Cleanup(func() { f.srv.Close() })
	return f
}

func (f *fakeTelemetry) setStep(step float64) {
	f.mu.Lock()
	f.step = step
	f.mu.Unlock()
}

func TestHotspotSplitsAndUnderloadCoalesces(t *testing.T) {
	t.Parallel()
	n := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	tel := newFakeTelemetry(t, 1e7) // ~2 Gbit/s measured at a 40ms scrape
	opts := testOptions([]NodeConfig{{ID: "sp-0-0", Addr: n.Addr(), Telemetry: tel.addr}})
	opts.Limit = analysis.Load{InBps: 1e6}
	c := New(opts)
	c.Start()
	defer c.Close()

	waitFor(t, "hotspot declared", func() bool { return hasEvent(c, EvHotspot, "sp-0-0") })
	waitFor(t, "split applied", func() bool {
		// ClientCapacity/2, TTL decayed at least one step (a second hotspot
		// episode may already have decayed further).
		_, ttl, maxClients := n.ControlState()
		return maxClients == 2 && ttl < 7
	})

	// The flow dries up: sustained underload should coalesce — capacity
	// opens up and the decayed TTL is restored.
	tel.setStep(0)
	waitFor(t, "underload declared", func() bool { return hasEvent(c, EvUnderload, "sp-0-0") })
	waitFor(t, "coalesce applied", func() bool {
		_, ttl, maxClients := n.ControlState()
		return maxClients == 10 && ttl == 7
	})
}

// TestControllerStalledFrameDropsLink: a node that sends part of a frame and
// goes silent takes its control link down within the frame bound
// (RPCTimeout), so decideDeaths, which needs the link down, can see it.
func TestControllerStalledFrameDropsLink(t *testing.T) {
	t.Parallel() // mostly one idle RPCTimeout: overlap it with other waits
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stalled, quit := make(chan struct{}), make(chan struct{})
	defer close(quit)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, lc, err := link.ReadHello(c, time.Second, link.Framing{})
		if err != nil || lc.Reply(true) != nil {
			return
		}
		// 10 bytes of a 23-byte descriptor header, then silence with the
		// socket held open.
		if _, err := c.Write(make([]byte, 10)); err == nil {
			close(stalled)
		}
		<-quit
	}()

	c := New(testOptions([]NodeConfig{{ID: "sp-0-0", Addr: ln.Addr().String()}}))
	c.Start()
	defer c.Close()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("controller never opened its control link")
	}
	for deadline := time.Now().Add(2 * time.Second); !hasEvent(c, EvLinkDown, "sp-0-0"); {
		if time.Now().After(deadline) {
			t.Fatalf("control link still up 2s after a stalled frame; status %+v", c.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPredictedLoad(t *testing.T) {
	var b metrics.ByClass
	b[metrics.ClassQuery][metrics.DirIn] = 100
	b[metrics.ClassQuery][metrics.DirOut] = 50
	b[metrics.ClassOther][metrics.DirIn] = 20
	l := PredictedLoad(b, 1.5)
	if l.InBps != 180 || l.OutBps != 75 {
		t.Fatalf("PredictedLoad = %+v, want {180 75}", l)
	}
}

// TestBackoffDelayGrowsAndCaps checks the controller's retry schedule under
// its seeded jitter: the defaults are 100ms..2s, attempt 0 is immediate, and
// every later wait lies within ±20 % of Initial·2^(n-1) without exceeding
// Max, replaying identically for the same seed.
func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	var o Options
	o.setDefaults()
	if want := (link.Backoff{Initial: 100 * time.Millisecond, Max: 2 * time.Second}); o.Backoff != want {
		t.Fatalf("default backoff = %+v, want %+v", o.Backoff, want)
	}
	b := link.Backoff{Initial: 100 * time.Millisecond, Max: 400 * time.Millisecond}
	bases := []time.Duration{0, 100, 200, 400, 400, 400}
	rng, replay := stats.NewRNG(7), stats.NewRNG(7)
	for i, base := range bases {
		base *= time.Millisecond
		got := b.Delay(i, rng)
		lo, hi := time.Duration(float64(base)*0.8), min(time.Duration(float64(base)*1.2), b.Max)
		if got < lo || got > hi {
			t.Errorf("Delay(%d) = %v, want in [%v, %v]", i, got, lo, hi)
		}
		if again := b.Delay(i, replay); again != got {
			t.Errorf("Delay(%d) = %v on replay, want %v", i, again, got)
		}
	}
}
