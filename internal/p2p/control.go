package p2p

import (
	"math"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/metrics"
)

// Control-plane side of a node: the receiver half of the fleet controller in
// internal/control. A controller connects with the link.Control hello. The
// node sends one kind of frame on that link, a Register carrying the highest
// directive epoch it has applied (so a restarted controller can rebuild its
// database), its metered wire bytes and its client count. It sends one when
// the link opens and one after every Poll and every Directive; its link.Conn
// answers Pings.
//
// Directives are idempotent by epoch: the node applies a directive only when
// its epoch exceeds the node's watermark. The Register that follows is the
// directive's receipt either way: its epoch is at least the directive's. If
// the controller vanishes, nothing here changes — the node keeps serving
// with its last-applied configuration, which is the graceful-degradation
// contract the control plane is built around.

// runControl serves one controller link: report, then report again after
// every poll and every directive until the link dies.
func (n *Node) runControl(c *conn) {
	defer c.Close()
	for {
		if err := c.send(n.makeRegister(gnutella.RegisterHello)); err != nil {
			n.opts.Logf("p2p: control register to %s: %v", c.RemoteAddr(), err)
			return
		}
		msg, err := c.Recv(time.Time{})
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *gnutella.Poll:
			// Answered by the Register at the top of the loop.
		case *gnutella.Directive:
			n.applyDirective(m)
		default:
			n.opts.Logf("p2p: unexpected %T from controller %s", m, c.RemoteAddr())
			return
		}
	}
}

// makeRegister builds this node's report frame. Its In and Out are read
// before it is sent, so they exclude the frame itself.
func (n *Node) makeRegister(flags uint8) *gnutella.Register {
	rg := &gnutella.Register{ID: gnutella.NewGUID(), Flags: flags}
	for cl := 0; cl < metrics.NumClasses; cl++ {
		rg.In += uint64(n.metrics.Load.Bytes(metrics.Class(cl), metrics.DirIn))
		rg.Out += uint64(n.metrics.Load.Bytes(metrics.Class(cl), metrics.DirOut))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	rg.Epoch, rg.Clients = n.ctlEpoch, uint16(min(len(n.clients), math.MaxUint16))
	return rg
}

// applyDirective applies one Section 5.3 decision if its epoch is fresh: a
// non-zero MaxClients becomes the client capacity and a non-zero TTL the
// query TTL, whatever the action. Both change under mu — the same lock all
// readers of TTL and MaxClients already hold — so a directive lands
// atomically between queries.
func (n *Node) applyDirective(d *gnutella.Directive) {
	n.mu.Lock()
	if d.Epoch <= n.ctlEpoch {
		n.mu.Unlock()
		n.metrics.DirectivesStale.Inc()
		return
	}
	n.ctlEpoch = d.Epoch
	if d.MaxClients > 0 {
		n.opts.MaxClients = int(d.MaxClients)
	}
	if d.TTL > 0 {
		n.core.ttl = int(d.TTL)
	}
	n.mu.Unlock()
	n.metrics.DirectivesApplied.Inc()
	n.opts.Logf("p2p: applied directive epoch %d: %s (ttl %d, max-clients %d)",
		d.Epoch, d.Action, d.TTL, d.MaxClients)
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
