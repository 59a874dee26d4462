package control

import (
	"fmt"
	"net"
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

// startNode spins up a p2p node; id is its label in the controller's
// NodeConfig.
func startNode(t *testing.T, id string, opts p2p.Options) *p2p.Node {
	t.Helper()
	n := p2p.NewNode(opts)
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen %s: %v", id, err)
	}
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
		Interval:       40 * time.Millisecond,
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
		maxClients := n1.Stats().MaxClients
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
	defer n0b.Close()
	waitFor(t, "recovery", func() bool { return hasEvent(c, EvRecovered, "sp-0-0") })
	waitFor(t, "survivor restored", func() bool {
		maxClients := n1.Stats().MaxClients
		return maxClients == 5
	})
}

// TestDirectiveCapacitySaturates: a promotion doubles a capacity past the
// directive's 16-bit field, and the survivor must get the field's ceiling,
// not the doubled value wrapped to something smaller than it had.
func TestDirectiveCapacitySaturates(t *testing.T) {
	n0 := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	n1 := startNode(t, "sp-0-1", p2p.Options{MaxClients: 5, TTL: 7})
	opts := testOptions([]NodeConfig{
		{ID: "sp-0-0", Addr: n0.Addr(), Cluster: 0, Partner: 0},
		{ID: "sp-0-1", Addr: n1.Addr(), Cluster: 0, Partner: 1},
	})
	opts.ClientCapacity = 40000
	c := New(opts)
	c.Start()
	defer c.Close()
	waitFor(t, "both registered", func() bool {
		return hasEvent(c, EvRegistered, "sp-0-0") && hasEvent(c, EvRegistered, "sp-0-1")
	})
	n0.Close()
	waitFor(t, "promotion acked", func() bool { return hasEvent(c, EvAcked, "sp-0-1") })
	if got := n1.Stats().MaxClients; got != 65535 {
		t.Fatalf("survivor max clients = %d, want the saturated 65535", got)
	}
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
	a.pushDirective(st, &gnutella.Directive{Action: gnutella.ActionSplitCluster, TTL: 5}, nil)
	waitFor(t, "ttl applied", func() bool {
		ns := n.Stats()
		epoch, ttl := ns.DirectiveEpoch, ns.TTL
		return epoch == 1 && ttl == 5
	})

	// A replay of epoch 1 with different contents must be rejected as stale
	// — and the push still succeeds from the controller's point of view
	// (idempotent delivery).
	if err := st.agent.push(&gnutella.Directive{Epoch: 1, Action: gnutella.ActionSplitCluster, TTL: 3}); err != nil {
		t.Fatalf("stale push: %v", err)
	}
	if ttl := n.Stats().TTL; ttl != 5 {
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
	b.pushDirective(st, &gnutella.Directive{Action: gnutella.ActionSplitCluster, TTL: 4}, nil)
	waitFor(t, "post-restart directive applied", func() bool {
		ns := n.Stats()
		epoch, ttl := ns.DirectiveEpoch, ns.TTL
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
		maxClients := n1.Stats().MaxClients
		return maxClients == 10
	})
	// The storm subsides (the link is in fact healthy), so the controller
	// should recover the node and walk the partner back down.
	waitFor(t, "storm recovery", func() bool { return hasEvent(c, EvRecovered, "sp-0-0") })
	waitFor(t, "partner restored", func() bool {
		maxClients := n1.Stats().MaxClients
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
	opts.Net = link.Net{DialFunc: fc.Net("controller", link.Net{}).Dial}
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
	c.pushDirective(st, &gnutella.Directive{Action: gnutella.ActionSplitCluster, TTL: 3}, nil)
	waitFor(t, "push failure surfaces", func() bool { return hasEvent(c, EvPushFailed, "sp-0-0") })
	if ns := n0.Stats(); ns.TTL != 7 || ns.MaxClients != 5 {
		t.Fatalf("node config changed during partition: ttl=%d maxClients=%d", ns.TTL, ns.MaxClients)
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
	if ns := n0.Stats(); ns.TTL != 7 || ns.MaxClients != 5 {
		t.Fatalf("sp-0-0 config thrashed during partition: ttl=%d maxClients=%d", ns.TTL, ns.MaxClients)
	}
	if ns := n1.Stats(); ns.TTL != 7 || ns.MaxClients != 5 {
		t.Fatalf("sp-0-1 config thrashed during partition: ttl=%d maxClients=%d", ns.TTL, ns.MaxClients)
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
		s0, s1 := n0.Stats(), n1.Stats()
		return s0.TTL == 7 && s0.MaxClients == 5 && s1.TTL == 7 && s1.MaxClients == 5
	})

	c.mu.Lock()
	st = c.nodes["sp-0-1"]
	c.mu.Unlock()
	c.pushDirective(st, &gnutella.Directive{Action: gnutella.ActionSplitCluster, TTL: 6}, nil)
	waitFor(t, "post-heal directive applied", func() bool {
		ttl := n1.Stats().TTL
		return ttl == 6
	})
}

// TestWalkBackRetriedAfterFailedPush: when a dead node recovers while its
// promoted partner is cut off from the controller, the walk-back push fails;
// the controller keeps pushing it on later ticks, so once the cut heals both
// partners are back at baseline capacity.
func TestWalkBackRetriedAfterFailedPush(t *testing.T) {
	t.Parallel() // mostly one ack timeout and backoff: overlap them with other waits
	fc := faults.NewController(5)
	n0 := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	n1 := startNode(t, "sp-0-1", p2p.Options{MaxClients: 5, TTL: 7})
	opts := testOptions([]NodeConfig{
		{ID: "sp-0-0", Addr: n0.Addr(), Cluster: 0, Partner: 0},
		{ID: "sp-0-1", Addr: n1.Addr(), Cluster: 0, Partner: 1},
	})
	// The controller reaches sp-0-1 through a fault-wrapped Net, so that one
	// link can be cut while sp-0-0's stays up.
	toN1, addr1 := fc.Net("sp-0-1", link.Net{}), n1.Addr()
	opts.Net = link.Net{DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
		if addr == addr1 {
			return toN1.Dial(addr, timeout)
		}
		return link.Net{}.Dial(addr, timeout)
	}}
	c := New(opts)
	c.Start()
	defer c.Close()
	waitFor(t, "both registered", func() bool {
		return hasEvent(c, EvRegistered, "sp-0-0") && hasEvent(c, EvRegistered, "sp-0-1")
	})

	addr0 := n0.Addr()
	n0.Close()
	waitFor(t, "survivor promoted", func() bool { return n1.Stats().MaxClients == 10 })
	waitFor(t, "promotion acked", func() bool { return hasEvent(c, EvAcked, "sp-0-1") })

	// Cut sp-0-1 off, then bring sp-0-0 back: the walk-back push is lost.
	fc.Isolate("sp-0-1")
	cut := len(c.Events())
	n0b := p2p.NewNode(p2p.Options{MaxClients: 5, TTL: 7})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		err := n0b.Listen(addr0)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Skipf("could not rebind %s: %v", addr0, err)
		}
	}
	defer n0b.Close()
	waitFor(t, "recovery", func() bool { return hasEvent(c, EvRecovered, "sp-0-0") })
	waitFor(t, "walk-back push failed", func() bool {
		for _, e := range c.Events()[cut:] {
			if e.Type == EvPushFailed && e.Node == "sp-0-1" {
				return true
			}
		}
		return false
	})
	if got := n1.Stats().MaxClients; got != 10 {
		t.Fatalf("walk-back reached sp-0-1 through the cut: max clients %d", got)
	}

	fc.Restore("sp-0-1")
	waitFor(t, "both partners at baseline", func() bool {
		return n0b.Stats().MaxClients == 5 && n1.Stats().MaxClients == 5
	})
}

// TestSilentPartitionTakesLinkDown: a partition that blackholes the control
// link, with no push in flight, leaves the link open but silent. The node
// answers every tick's Poll, so the next one unanswered for RPCTimeout takes
// the link down, and the node is declared dead within 2 × (Interval +
// RPCTimeout).
func TestSilentPartitionTakesLinkDown(t *testing.T) {
	t.Parallel() // mostly one silence bound: overlap it with other waits
	fc := faults.NewController(3)
	n := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	opts := testOptions([]NodeConfig{{ID: "sp-0-0", Addr: n.Addr()}})
	opts.Net = link.Net{DialFunc: fc.Net("controller", link.Net{}).Dial}
	c := New(opts)
	c.Start()
	defer c.Close()
	waitFor(t, "registered", func() bool { return hasEvent(c, EvRegistered, "sp-0-0") })

	isolated := time.Now()
	fc.Isolate("controller")
	defer fc.Restore("controller")
	bound := 2 * (opts.Interval + opts.RPCTimeout)
	for deadline := isolated.Add(bound); !hasEvent(c, EvDead, "sp-0-0"); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no death %v after a silent partition; status %+v", bound, c.Status())
		}
	}
	for _, typ := range []EventType{EvLinkDown, EvDead} {
		if e, _ := findEvent(c, typ, "sp-0-0"); e.Time.Sub(isolated) > bound {
			t.Errorf("%v %v after the partition, want within %v", typ, e.Time.Sub(isolated), bound)
		}
	}
}

// TestSlowPushSparesHealthyLinks: a tick whose push waits on a freshly
// isolated node sends its Polls late. Silence is timed from each Poll, so
// that delay takes down no other node's link.
func TestSlowPushSparesHealthyLinks(t *testing.T) {
	t.Parallel() // mostly one silence bound: overlap it with other waits
	fc := faults.NewController(9)
	n0 := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	n1 := startNode(t, "sp-0-1", p2p.Options{MaxClients: 5, TTL: 7})
	n2 := startNode(t, "sp-1-0", p2p.Options{MaxClients: 5, TTL: 7})
	opts := testOptions([]NodeConfig{
		{ID: "sp-0-0", Addr: n0.Addr(), Cluster: 0, Partner: 0},
		{ID: "sp-0-1", Addr: n1.Addr(), Cluster: 0, Partner: 1},
		{ID: "sp-1-0", Addr: n2.Addr(), Cluster: 1},
	})
	toN1, addr1 := fc.Net("sp-0-1", link.Net{}), n1.Addr()
	opts.Net = link.Net{DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
		if addr == addr1 {
			return toN1.Dial(addr, timeout)
		}
		return link.Net{}.Dial(addr, timeout)
	}}
	c := New(opts)
	c.Start()
	defer c.Close()
	waitFor(t, "all registered", func() bool {
		return hasEvent(c, EvRegistered, "sp-0-0") && hasEvent(c, EvRegistered, "sp-0-1") &&
			hasEvent(c, EvRegistered, "sp-1-0")
	})

	// Cut sp-0-1 off, then kill its partner: the next tick pushes the
	// promotion into the cut and waits out the silence bound on it.
	mark := len(c.Events())
	fc.Isolate("sp-0-1")
	defer fc.Restore("sp-0-1")
	n0.Close()
	waitFor(t, "promotion push failed", func() bool {
		for _, e := range c.Events()[mark:] {
			if e.Type == EvPushFailed && e.Node == "sp-0-1" {
				return true
			}
		}
		return false
	})
	time.Sleep(2 * (opts.Interval + opts.RPCTimeout))
	for _, e := range c.Events()[mark:] {
		if e.Node == "sp-1-0" {
			t.Errorf("healthy node saw %s while a push waited on another", e)
		}
	}
}

// TestPartnerBackFirstIsNoSurvivor: when both partners of a cluster are cut
// off and declared dead, the one whose link comes back first was not alive
// when the other died, so it is not promoted to cover for it.
func TestPartnerBackFirstIsNoSurvivor(t *testing.T) {
	t.Parallel() // mostly silence bounds: overlap them with other waits
	fc := faults.NewController(11)
	n0 := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	n1 := startNode(t, "sp-0-1", p2p.Options{MaxClients: 5, TTL: 7})
	opts := testOptions([]NodeConfig{
		{ID: "sp-0-0", Addr: n0.Addr(), Cluster: 0, Partner: 0},
		{ID: "sp-0-1", Addr: n1.Addr(), Cluster: 0, Partner: 1},
	})
	to := map[string]link.Net{n0.Addr(): fc.Net("sp-0-0", link.Net{}), n1.Addr(): fc.Net("sp-0-1", link.Net{})}
	opts.Net = link.Net{DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
		return to[addr].Dial(addr, timeout)
	}}
	c := New(opts)
	c.Start()
	defer c.Close()
	waitFor(t, "both registered", func() bool {
		return hasEvent(c, EvRegistered, "sp-0-0") && hasEvent(c, EvRegistered, "sp-0-1")
	})

	fc.Isolate("sp-0-0")
	fc.Isolate("sp-0-1")
	defer fc.Restore("sp-0-1")
	waitFor(t, "both dead", func() bool { return hasEvent(c, EvDead, "sp-0-0") && hasEvent(c, EvDead, "sp-0-1") })
	fc.Restore("sp-0-0")
	waitFor(t, "sp-0-0 recovered", func() bool { return hasEvent(c, EvRecovered, "sp-0-0") })
	time.Sleep(2 * (opts.Interval + opts.RPCTimeout))
	if hasEvent(c, EvPushed, "sp-0-0") || n0.Stats().MaxClients != 5 {
		t.Fatalf("sp-0-0 promoted for a partner it did not outlive: max clients %d", n0.Stats().MaxClients)
	}
}

// TestRestartIsANewBaseline: a node restarted on its address comes back on a
// new link with counters begun again at zero. The first sample on that link
// is a baseline with no load, the ones after it read positive, and none
// reads negative.
func TestRestartIsANewBaseline(t *testing.T) {
	n := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	addr := n.Addr()
	opts := testOptions([]NodeConfig{{ID: "sp-0-0", Addr: addr}})
	opts.Interval = time.Hour // the test drives the samples itself
	c := New(opts)
	c.Start()
	defer c.Close()
	st := c.nodes["sp-0-0"]

	// step samples the newest Register, as a tick does, then polls and
	// waits for the reply that the next step samples.
	step := func() analysis.Load {
		t.Helper()
		c.sample(st)
		last := st.agent.latest().reg
		st.agent.poll()
		waitFor(t, "poll reply", func() bool { return st.agent.latest().reg != last })
		load := c.Status()[0].Load
		if load.InBps < 0 || load.OutBps < 0 {
			t.Fatalf("negative load %+v", load)
		}
		return load
	}
	waitFor(t, "registered", func() bool { return hasEvent(c, EvRegistered, "sp-0-0") })
	if got := step(); got != (analysis.Load{}) {
		t.Fatalf("first sample = %+v, want a baseline with no load", got)
	}
	if got := step(); got.InBps <= 0 || got.OutBps <= 0 {
		t.Fatalf("load before the restart = %+v, want positive", got)
	}
	// A tick with no Register since the last one has no fresh delta.
	c.sample(st)
	c.sample(st)
	c.mu.Lock()
	fresh := st.haveLoad
	c.mu.Unlock()
	if fresh {
		t.Fatal("a repeated sample counted as a fresh load")
	}

	n.Close()
	n2 := p2p.NewNode(p2p.Options{MaxClients: 5, TTL: 7})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		err := n2.Listen(addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Skipf("could not rebind %s: %v", addr, err)
		}
	}
	defer n2.Close()
	waitFor(t, "re-registered", func() bool {
		s := st.agent.latest()
		return s.conn != st.prev.conn && s.reg.Flags == gnutella.RegisterHello
	})
	if got := step(); got != (analysis.Load{}) {
		t.Fatalf("first sample after the restart = %+v, want a baseline with no load", got)
	}
	for i := 0; i < 3; i++ {
		if got := step(); got.InBps <= 0 || got.OutBps <= 0 {
			t.Fatalf("load %d after the restart = %+v, want positive", i+1, got)
		}
	}
}

// TestHotspotSplitsAndUnderloadCoalesces drives a real node with searching
// clients past its limit, then lets it idle. The limit is sized from the
// control frames: an idle link carries one Poll in and one Register out per
// tick, a tenth of the limit, under the coalesce threshold of 15%.
func TestHotspotSplitsAndUnderloadCoalesces(t *testing.T) {
	t.Parallel()
	n := startNode(t, "sp-0-0", p2p.Options{MaxClients: 5, TTL: 7})
	opts := testOptions([]NodeConfig{{ID: "sp-0-0", Addr: n.Addr()}})
	perTick := 8 / opts.Interval.Seconds()
	opts.Limit = analysis.Load{
		InBps:  float64(gnutella.PollSize()) * perTick,
		OutBps: float64(gnutella.RegisterSize()) * perTick,
	}.Scale(10)
	c := New(opts)
	c.Start()
	defer c.Close()

	// Two clients, each sharing files every search matches, so each search
	// draws a QueryHit of many results. One goroutine per client: a
	// Client's Search is not safe for concurrent use.
	var files []p2p.SharedFile
	for i := 1; i <= 20; i++ {
		files = append(files, p2p.SharedFile{Index: uint32(i), Title: fmt.Sprintf("hotspot track %d", i)})
	}
	stop := make(chan struct{})
	var searching sync.WaitGroup
	for i := 0; i < 2; i++ {
		cl, err := p2p.DialClient(n.Addr(), files)
		if err != nil {
			t.Fatalf("DialClient: %v", err)
		}
		defer cl.Close()
		searching.Add(1)
		go func() {
			defer searching.Done()
			for {
				select {
				case <-stop:
					return
				default:
					cl.Search("hotspot", 2*time.Millisecond)
				}
			}
		}()
	}

	waitFor(t, "hotspot declared", func() bool { return hasEvent(c, EvHotspot, "sp-0-0") })
	waitFor(t, "split applied", func() bool {
		// ClientCapacity/2, TTL decayed at least one step (a second hotspot
		// episode may already have decayed further).
		ns := n.Stats()
		return ns.MaxClients == 2 && ns.TTL < 7
	})

	// The searches stop, the clients stay: sustained underload should
	// coalesce — capacity opens up and the decayed TTL is restored.
	close(stop)
	searching.Wait()
	waitFor(t, "underload declared", func() bool { return hasEvent(c, EvUnderload, "sp-0-0") })
	waitFor(t, "coalesce applied", func() bool {
		ns := n.Stats()
		return ns.MaxClients == 10 && ns.TTL == 7
	})
}

// TestControllerStalledFrameDropsLink: a node that sends part of a frame and
// goes silent takes its control link down within Interval + RPCTimeout, so
// decideDeaths, which needs the link down, can see it.
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
