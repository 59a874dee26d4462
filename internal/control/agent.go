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
// handshake, then read the node's Registers until the link dies or falls
// silent — and start over. One goroutine per node for the life of the
// controller.
type agent struct {
	ctrl *Controller
	cfg  NodeConfig
	rng  *stats.RNG // backoff jitter, drawn under mu

	mu   sync.Mutex
	conn *link.Conn // nil while the link is down
	// pending holds the wake channel of each push waiting for its receipt
	// on conn, keyed by epoch. Whoever takes one out closes it: the reader
	// when the receipt arrives, or setConn when the link drops.
	pending map[uint64]chan struct{}
	// last is the newest Register from the node, on this link or an
	// earlier one: the decision loop's sample.
	last sample
	// asked is when the oldest Poll or Directive on conn still awaiting a
	// Register was sent; at or before conn's LastFrame when none is.
	asked time.Time
	// registers counts links whose first Register arrived since the
	// decision loop last looked — the re-registration-storm detector's input.
	registers int
	// bye records a graceful deregistration (node drained, not crashed).
	bye bool
}

// sample is one Register and the link and time it arrived on.
type sample struct {
	reg  *gnutella.Register
	conn *link.Conn
	at   time.Time
}

// run is the agent's connection-supervision loop.
func (a *agent) run() {
	defer a.ctrl.wg.Done()
	// Payloads are capped at 64 KiB. Every read carries readLoop's silence
	// deadline, so a node stalled mid-frame takes its link down too.
	framing := link.Framing{MaxPayload: 1 << 16}
	attempt := 0
	for {
		select {
		case <-a.ctrl.stop:
			return
		default:
		}
		if conn, err := a.ctrl.opts.Net.Open(a.cfg.Addr, link.Control, a.ctrl.opts.DialTimeout, framing); err != nil {
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

// setConn publishes or clears the live link. Clearing it wakes every push
// still waiting for a receipt on it.
func (a *agent) setConn(c *link.Conn) {
	a.mu.Lock()
	a.conn = c
	if c != nil {
		a.bye = false
		select {
		case <-a.ctrl.stop:
			c.Close() // Close has already swept the links: this one is late
		default:
		}
	}
	for epoch, woke := range a.pending {
		delete(a.pending, epoch)
		close(woke)
	}
	a.mu.Unlock()
	if c == nil {
		a.ctrl.event(Event{Type: EvLinkDown, Node: a.cfg.ID})
	}
}

// liveConn returns the control link, nil while it is down.
func (a *agent) liveConn() *link.Conn {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.conn
}

// readLoop pumps the link's Registers until it errors or leaves a request
// unanswered for RPCTimeout. Silence is timed from the request, not the last
// frame, so a tick whose pushes delay its Polls condemns no healthy link.
func (a *agent) readLoop(c *link.Conn) {
	for {
		m, err := c.Recv(a.silentAt(c))
		if err == link.ErrIdle && time.Now().Before(a.silentAt(c)) {
			continue // the deadline was a wake-up, not a request timing out
		}
		if err != nil {
			return
		}
		r, ok := m.(*gnutella.Register)
		if !ok {
			a.ctrl.opts.Logf("control: unexpected %T from %s", m, a.cfg.ID)
			return
		}
		a.handleRegister(c, r)
	}
}

// silentAt is when link c is down: RPCTimeout after its oldest unanswered
// request, or with none a wake-up Interval + RPCTimeout out to look again.
func (a *agent) silentAt(c *link.Conn) time.Time {
	a.mu.Lock()
	asked := a.asked
	a.mu.Unlock()
	if asked.After(c.LastFrame()) {
		return asked.Add(a.ctrl.opts.RPCTimeout)
	}
	return time.Now().Add(a.ctrl.opts.Interval + a.ctrl.opts.RPCTimeout)
}

// handleRegister ingests one Register from link c: adopt its epoch watermark
// (the restart-recovery path — a fresh controller learns the fleet's highest
// applied epoch from these), keep it as the latest sample, deliver the
// receipts it carries, count a link's first for storm detection, and record
// byes.
func (a *agent) handleRegister(c *link.Conn, r *gnutella.Register) {
	a.ctrl.adoptEpoch(r.Epoch)
	bye := r.Flags == gnutella.RegisterBye
	a.mu.Lock()
	first := a.last.conn != c
	a.last = sample{reg: r, conn: c, at: c.LastFrame()}
	if first {
		a.registers++
	}
	if bye {
		a.bye = true
	}
	for epoch, woke := range a.pending {
		if epoch <= r.Epoch {
			delete(a.pending, epoch)
			close(woke)
		}
	}
	a.mu.Unlock()
	switch {
	case bye:
		a.ctrl.event(Event{Type: EvDeregistered, Node: a.cfg.ID, Epoch: r.Epoch})
	case first:
		a.ctrl.event(Event{Type: EvRegistered, Node: a.cfg.ID, Epoch: r.Epoch})
	}
}

// latest returns the newest Register sample.
func (a *agent) latest() sample {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last
}

// takeRegisters returns and resets the first-Register count, and whether a
// bye was seen, for the decision loop's storm/drain detection.
func (a *agent) takeRegisters() (n int, bye bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, bye = a.registers, a.bye
	a.registers = 0
	return n, bye
}

// poll asks the node for its next Register.
func (a *agent) poll() {
	if conn := a.liveConn(); conn != nil {
		a.ask(conn, &gnutella.Poll{})
	}
}

// ask sends c a request the node answers with a Register, starting readLoop's
// silence clock unless an earlier request is still unanswered.
func (a *agent) ask(c *link.Conn, m gnutella.Message) error {
	a.mu.Lock()
	if !a.asked.After(c.LastFrame()) {
		a.asked = time.Now()
	}
	a.mu.Unlock()
	err := c.Send(m, a.ctrl.opts.RPCTimeout)
	if err != nil {
		c.Close() // a frame cut off part way leaves the stream out of step
	}
	return err
}

// push sends one directive and waits for its receipt, retrying with seeded
// backoff. A stale directive's receipt still counts as success: the node
// already holds an equal or newer configuration, which is exactly what
// idempotent delivery promises. Fails fast when the link is down — a
// partitioned controller must not block its decision loop on dead RPCs.
func (a *agent) push(d *gnutella.Directive) error {
	var lastErr error
	for attempt := 0; attempt < pushAttempts; attempt++ {
		if attempt > 0 && !link.Sleep(a.backoff(attempt), a.ctrl.stop) {
			return fmt.Errorf("control: shutting down")
		}
		if lastErr = a.pushOnce(d); lastErr == nil {
			a.ctrl.event(Event{Type: EvAcked, Node: a.cfg.ID, Epoch: d.Epoch, Detail: d.Action.String()})
			return nil
		}
	}
	return lastErr
}

// pushOnce sends d on the live link and waits one RPCTimeout for its
// receipt. The wait ends early when the reader delivers the receipt or the
// link drops, Controller.Close included, since it closes the links.
func (a *agent) pushOnce(d *gnutella.Directive) error {
	a.mu.Lock()
	conn := a.conn
	if conn == nil {
		a.mu.Unlock()
		return fmt.Errorf("control: link to %s down", a.cfg.ID)
	}
	woke := make(chan struct{})
	a.pending[d.Epoch] = woke
	a.mu.Unlock()

	err := a.ask(conn, d)
	if err == nil {
		if !link.Sleep(a.ctrl.opts.RPCTimeout, woke) {
			// Woken: the receipt arrived, or the link dropped.
			if last := a.latest().reg; last != nil && last.Epoch >= d.Epoch {
				return nil
			}
			return fmt.Errorf("control: link to %s dropped awaiting epoch %d", a.cfg.ID, d.Epoch)
		}
		// A silent link is left to readLoop's silence bound.
		err = fmt.Errorf("control: no receipt from %s (epoch %d)", a.cfg.ID, d.Epoch)
	}
	a.mu.Lock()
	if a.pending[d.Epoch] == woke {
		delete(a.pending, d.Epoch)
	}
	a.mu.Unlock()
	return err
}
