package control

import (
	"sync"
	"testing"
	"time"

	"spnet/internal/link"
	"spnet/internal/p2p"
)

// eventLog records supervised-client lifecycle events in arrival order.
type eventLog struct {
	mu     sync.Mutex
	events []p2p.Event
}

func (l *eventLog) add(e p2p.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []p2p.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]p2p.Event(nil), l.events...)
}

// count returns how many events of the given type have fired, and the index
// of the first one (-1 if none).
func (l *eventLog) count(typ p2p.EventType) (n, first int) {
	first = -1
	for i, e := range l.snapshot() {
		if e.Type == typ {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	return n, first
}

// TestClientEventOrderAcrossPromotedFailover drills the full §5.3 healing
// story from the client's point of view and pins the Event contract: kill
// the client's super-peer while the surviving partner is at capacity, let
// the controller promote the survivor, and require the supervised client to
// emit conn-lost → dial-failed (refused while full) → rejoined in causal
// order, with the terminal transitions firing exactly once — no duplicate
// reconnects, no spurious give-up.
func TestClientEventOrderAcrossPromotedFailover(t *testing.T) {
	// Two partners with capacity 1 each. n0 hosts the watched client; n1 is
	// pre-filled by a squatter so the failover target starts Busy.
	n0 := startNode(t, "sp-0-0", p2p.Options{MaxClients: 1, TTL: 7, DrainTimeout: -1})
	n1 := startNode(t, "sp-0-1", p2p.Options{MaxClients: 1, TTL: 7, DrainTimeout: -1})

	squatter, err := p2p.DialClient(n1.Addr(), nil)
	if err != nil {
		t.Fatalf("squatter dial: %v", err)
	}
	defer squatter.Close()

	var log eventLog
	cl, err := p2p.DialClientOptions(p2p.DialOptions{
		Addrs: []string{n0.Addr(), n1.Addr()},
		// The supervisor notices the death; generous attempts so the client
		// outlasts the Busy window until the controller's promotion lands.
		HeartbeatInterval: 25 * time.Millisecond,
		MaxAttempts:       40,
		Backoff:           link.Backoff{Initial: 40 * time.Millisecond, Max: 150 * time.Millisecond},
		Seed:              11,
		OnEvent:           log.add,
	}, []p2p.SharedFile{{Index: 1, Title: "ordered events manual"}})
	if err != nil {
		t.Fatalf("client dial: %v", err)
	}
	defer cl.Close()

	opts := testOptions([]NodeConfig{
		{ID: "sp-0-0", Addr: n0.Addr(), Cluster: 0, Partner: 0},
		{ID: "sp-0-1", Addr: n1.Addr(), Cluster: 0, Partner: 1},
	})
	opts.ClientCapacity = 1
	// The client must observably bounce off the full survivor before the
	// promotion lands, so detect deaths a few client-retry periods slower
	// than the client notices them.
	opts.Interval = 400 * time.Millisecond
	c := New(opts)
	c.Start()
	defer c.Close()
	waitFor(t, "fleet registered", func() bool {
		return hasEvent(c, EvRegistered, "sp-0-0") && hasEvent(c, EvRegistered, "sp-0-1")
	})

	// Kill the client's super-peer. The survivor is full, so the client can
	// only land after the controller promotes it to double capacity.
	n0.Close()
	waitFor(t, "controller promoted the survivor", func() bool {
		maxClients := n1.Stats().MaxClients
		return maxClients == 2
	})
	waitFor(t, "client rejoined", func() bool {
		n, _ := log.count(p2p.EventRejoined)
		return n >= 1
	})

	// The re-homed client must be fully functional: its collection was
	// re-shipped, so the squatter can find it through the promoted partner.
	waitFor(t, "re-homed client searchable", func() bool {
		res, err := squatter.Search("ordered", 100*time.Millisecond)
		return err == nil && len(res) == 1
	})

	// Let any straggler events land before freezing the log.
	time.Sleep(150 * time.Millisecond)
	events := log.snapshot()

	lost, lostAt := log.count(p2p.EventConnLost)
	rejoin, rejoinAt := log.count(p2p.EventRejoined)
	failed, failedAt := log.count(p2p.EventDialFailed)
	gaveUp, _ := log.count(p2p.EventGaveUp)

	// Exactly once: one death seen, one successful re-home, one re-join.
	if lost != 1 || rejoin != 1 {
		t.Errorf("want exactly one conn-lost/rejoined, got %d/%d\nevents: %v",
			lost, rejoin, events)
	}
	if gaveUp != 0 {
		t.Errorf("client gave up during a recoverable failover\nevents: %v", events)
	}
	// The survivor was at capacity when the death hit, so at least one dial
	// must have been refused before the promotion opened a slot.
	if failed == 0 {
		t.Errorf("no dial-failed events — survivor never refused while full\nevents: %v", events)
	}
	// Causal order: the death is observed first, refusals happen before the
	// successful re-join.
	if !(lostAt < failedAt && failedAt < rejoinAt) {
		t.Errorf("events out of causal order: conn-lost@%d dial-failed@%d rejoined@%d\nevents: %v",
			lostAt, failedAt, rejoinAt, events)
	}
	// The re-join landed on the promoted partner, not the dead one, on the
	// attempt after the last refusal: one cycle, one refusal per attempt.
	if e := events[rejoinAt]; e.Addr != n1.Addr() || e.Attempt != failed {
		t.Errorf("rejoined %s on attempt %d, want promoted partner %s on attempt %d\nevents: %v",
			e.Addr, e.Attempt, n1.Addr(), failed, events)
	}
}
