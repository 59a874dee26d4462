package p2p

import (
	"time"

	"spnet/internal/gnutella"
)

// Control-plane side of a node: the receiver half of the fleet controller in
// internal/control. A controller connects with the link.Control hello;
// the node immediately announces itself with a Register frame (carrying its
// identity and the highest directive epoch it has applied, so a restarted
// controller can rebuild its database), then applies Directives; its
// link.Conn answers Pings.
//
// Directives are idempotent by epoch: the node applies a directive only when
// its epoch exceeds the node's watermark, and acknowledges every directive
// either way (Applied=1 or Applied=0 for stale). If the controller vanishes,
// nothing here changes — the node keeps serving with its last-applied
// configuration, which is the graceful-degradation contract the control
// plane is built around.

// SetIdentity names this node for the control plane: id is the stable
// operator-assigned label (e.g. "sp-0-1"), telemetry the /metrics HTTP
// address ("" when not serving telemetry). Call before controllers connect;
// safe to call again after a restart.
func (n *Node) SetIdentity(id, telemetry string) {
	n.mu.Lock()
	n.nodeID = id
	n.telemetryAddr = telemetry
	n.mu.Unlock()
}

// ControlState reports the node's control-plane view: the highest directive
// epoch applied and the currently effective TTL and client capacity.
func (n *Node) ControlState() (epoch uint64, ttl, maxClients int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ctlEpoch, n.opts.TTL, n.opts.MaxClients
}

// runControl serves one controller link: announce, then apply directives
// until the link dies.
func (n *Node) runControl(c *conn) {
	defer c.Close()
	if err := c.send(n.makeRegister(gnutella.RegisterHello)); err != nil {
		n.opts.Logf("p2p: control register to %s: %v", c.RemoteAddr(), err)
		return
	}
	for {
		msg, err := c.Recv(time.Time{})
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *gnutella.Directive:
			applied := n.applyDirective(m)
			var flag uint8
			if applied {
				flag = 1
			}
			n.mu.Lock()
			id := n.nodeID
			n.mu.Unlock()
			ack := &gnutella.DirectiveAck{ID: m.ID, Epoch: m.Epoch, Applied: flag, NodeID: id}
			if err := c.send(ack); err != nil {
				n.opts.Logf("p2p: directive ack to %s: %v", c.RemoteAddr(), err)
				return
			}
		default:
			n.opts.Logf("p2p: unexpected %T from controller %s", m, c.RemoteAddr())
			return
		}
	}
}

// makeRegister builds this node's announcement frame.
func (n *Node) makeRegister(flags uint8) *gnutella.Register {
	n.mu.Lock()
	defer n.mu.Unlock()
	return &gnutella.Register{
		ID:        gnutella.NewGUID(),
		Flags:     flags,
		Epoch:     n.ctlEpoch,
		NodeID:    n.nodeID,
		Addr:      n.Addr(),
		Telemetry: n.telemetryAddr,
	}
}

// applyDirective applies one Section 5.3 decision if its epoch is fresh.
// Every mutation happens under mu — the same lock all readers of TTL and
// MaxClients already hold — so a directive lands atomically between queries.
func (n *Node) applyDirective(d *gnutella.Directive) bool {
	n.mu.Lock()
	if d.Epoch <= n.ctlEpoch {
		n.mu.Unlock()
		n.metrics.DirectivesStale.Inc()
		return false
	}
	n.ctlEpoch = d.Epoch
	var target string
	switch d.Action {
	case gnutella.ActionSetTTL:
		if d.TTL > 0 {
			n.opts.TTL = int(d.TTL)
		}
	case gnutella.ActionPromotePartner, gnutella.ActionSplitCluster, gnutella.ActionCoalesce:
		if d.MaxClients > 0 {
			n.opts.MaxClients = int(d.MaxClients)
		}
		if d.TTL > 0 {
			n.opts.TTL = int(d.TTL)
		}
		target = d.Target
	}
	n.mu.Unlock()
	n.metrics.DirectivesApplied.Inc()
	n.opts.Logf("p2p: applied directive epoch %d: %s (ttl %d, max-clients %d, target %q)",
		d.Epoch, d.Action, d.TTL, d.MaxClients, d.Target)
	if target != "" {
		// Best-effort: take over the dead partner's overlay position. A dial
		// failure does not un-apply the capacity change; the controller sees
		// the topology through its next scrape and can retarget.
		if err := n.ConnectPeer(target); err != nil {
			n.opts.Logf("p2p: directive epoch %d: peering with %s: %v", d.Epoch, target, err)
		}
	}
	return true
}

// deregisterFromControllers sends a best-effort RegisterBye on every open
// control link during Close, so controllers can tell a drain from a crash.
// conns is Close's snapshot; control links still registered are filtered
// from it so the bye goes only to links that were alive when shutdown began.
func (n *Node) deregisterFromControllers(conns []*conn) {
	var ctl []*conn
	n.mu.Lock()
	for _, c := range conns {
		if _, ok := n.conns[c]; ok && c.role == roleControl {
			ctl = append(ctl, c)
		}
	}
	n.mu.Unlock()
	if len(ctl) == 0 {
		return
	}
	bye := n.makeRegister(gnutella.RegisterBye)
	for _, c := range ctl {
		// A short bound: shutdown must not hang WriteTimeout-long per dead
		// controller link.
		if err := c.Send(bye, 500*time.Millisecond); err != nil {
			n.opts.Logf("p2p: deregister bye: %v", err)
		}
	}
}
