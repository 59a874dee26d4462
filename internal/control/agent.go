package control

import (
	"fmt"
	"sync"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/stats"
)

// agent maintains the control link to one node: dial with seeded backoff,
// handshake, read the node's Register announcement, then pump acks and
// re-registrations until the link dies — and start over. One goroutine per
// node for the life of the controller.
type agent struct {
	ctrl *Controller
	cfg  NodeConfig
	rng  *stats.RNG // backoff jitter, drawn under mu

	mu   sync.Mutex
	conn *link.Conn // nil while the link is down
	// pending routes DirectiveAcks to waiting push calls, keyed by epoch.
	pending map[uint64]chan *gnutella.DirectiveAck
	// registers counts Register frames since the decision loop last looked —
	// the re-registration-storm detector's input.
	registers int
	// bye records a graceful deregistration (node drained, not crashed).
	bye bool
	up  bool
}

func newAgent(c *Controller, cfg NodeConfig, rng *stats.RNG) *agent {
	return &agent{
		ctrl:    c,
		cfg:     cfg,
		rng:     rng,
		pending: make(map[uint64]chan *gnutella.DirectiveAck),
	}
}

// run is the agent's connection-supervision loop.
func (a *agent) run() {
	defer a.ctrl.wg.Done()
	// A frame that has started must finish within one RPC timeout, so a node
	// stalled mid-frame takes its link down; payloads are capped at 64 KiB.
	framing := link.Framing{Bound: a.ctrl.opts.RPCTimeout, MaxPayload: 1 << 16}
	attempt := 0
	for {
		select {
		case <-a.ctrl.stop:
			return
		default:
		}
		if conn, err := a.ctrl.opts.Dial.Open(a.cfg.Addr, link.Control, a.ctrl.opts.DialTimeout, framing); err != nil {
			attempt++
		} else {
			attempt = 0
			a.setConn(conn)
			a.readLoop(conn)
			a.setConn(nil)
			conn.Close()
		}
		// Seeded pause before redialing, so a dead node is probed at backoff
		// pace rather than in a tight loop: it grows with each failed dial,
		// and is one step after a link that was up.
		if !link.Sleep(a.backoff(max(attempt, 1)), a.ctrl.stop) {
			return
		}
	}
}

// backoff draws the attempt'th wait from the agent's seeded stream under mu:
// run's redials and push's retries draw on different goroutines.
func (a *agent) backoff(attempt int) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ctrl.opts.Backoff.Delay(attempt, a.rng)
}

// setConn publishes or clears the live link.
func (a *agent) setConn(c *link.Conn) {
	a.mu.Lock()
	a.conn = c
	a.up = c != nil
	if c != nil {
		a.bye = false
	}
	a.mu.Unlock()
	if c == nil {
		a.ctrl.event(Event{Type: EvLinkDown, Node: a.cfg.ID})
	}
}

// linkUp reports whether the control link is currently connected.
func (a *agent) linkUp() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.up
}

// readLoop pumps the link's inbound frames until it errors.
func (a *agent) readLoop(c *link.Conn) {
	for {
		m, err := c.Recv(time.Time{})
		if err != nil {
			return
		}
		switch msg := m.(type) {
		case *gnutella.Register:
			a.handleRegister(msg)
		case *gnutella.DirectiveAck:
			a.mu.Lock()
			ch := a.pending[msg.Epoch]
			a.mu.Unlock()
			if ch != nil {
				select {
				case ch <- msg:
				default:
				}
			}
		default:
			a.ctrl.opts.Logf("control: unexpected %T from %s", m, a.cfg.ID)
			return
		}
	}
}

// handleRegister ingests a node announcement: adopt its epoch watermark (the
// restart-recovery path — a fresh controller learns the fleet's highest
// applied epoch from these), count it for storm detection, and record byes.
func (a *agent) handleRegister(r *gnutella.Register) {
	a.ctrl.adoptEpoch(r.Epoch)
	a.mu.Lock()
	a.registers++
	if r.Flags == gnutella.RegisterBye {
		a.bye = true
	}
	a.mu.Unlock()
	if r.Flags == gnutella.RegisterBye {
		a.ctrl.event(Event{Type: EvDeregistered, Node: a.cfg.ID, Epoch: r.Epoch})
	} else {
		a.ctrl.event(Event{Type: EvRegistered, Node: a.cfg.ID, Epoch: r.Epoch})
	}
}

// takeRegisters returns and resets the register count, and whether a bye was
// seen, for the decision loop's storm/drain detection.
func (a *agent) takeRegisters() (n int, bye bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, bye = a.registers, a.bye
	a.registers = 0
	return n, bye
}

// push sends one directive and waits for its ack, retrying with seeded
// backoff. An Applied=0 (stale) ack still counts as success: the node already
// holds an equal or newer configuration, which is exactly what idempotent
// delivery promises. Fails fast when the link is down — a partitioned
// controller must not block its decision loop on dead RPCs.
func (a *agent) push(d *gnutella.Directive) error {
	var lastErr error
	for attempt := 0; attempt < pushAttempts; attempt++ {
		if attempt > 0 && !link.Sleep(a.backoff(attempt), a.ctrl.stop) {
			return fmt.Errorf("control: shutting down")
		}
		ack, err := a.pushOnce(d)
		if err != nil {
			lastErr = err
			continue
		}
		applied := ack.Applied == 1
		a.ctrl.event(Event{Type: EvAcked, Node: a.cfg.ID, Epoch: d.Epoch,
			Detail: fmt.Sprintf("%s applied=%v", d.Action, applied)})
		return nil
	}
	return lastErr
}

func (a *agent) pushOnce(d *gnutella.Directive) (*gnutella.DirectiveAck, error) {
	a.mu.Lock()
	conn := a.conn
	if conn == nil {
		a.mu.Unlock()
		return nil, fmt.Errorf("control: link to %s down", a.cfg.ID)
	}
	ch := make(chan *gnutella.DirectiveAck, 1)
	a.pending[d.Epoch] = ch
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.pending, d.Epoch)
		a.mu.Unlock()
	}()

	if err := conn.Send(d, a.ctrl.opts.RPCTimeout); err != nil {
		conn.Close() // poison the link; run() redials
		return nil, err
	}
	select {
	case ack := <-ch:
		return ack, nil
	case <-time.After(a.ctrl.opts.RPCTimeout):
		// A silent link (blackholed by a partition, or a wedged node) must
		// not keep looking healthy: poison it so run() goes through a full
		// redial, and later decisions fail fast on a down link instead of
		// burning an RPC timeout each.
		conn.Close()
		return nil, fmt.Errorf("control: ack timeout from %s (epoch %d)", a.cfg.ID, d.Epoch)
	case <-a.ctrl.stop:
		return nil, fmt.Errorf("control: shutting down")
	}
}
