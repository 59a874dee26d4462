package p2p

import (
	"spnet/internal/cost"
	"spnet/internal/gnutella"
	"spnet/internal/metrics"
)

// meterMessage attributes one codec message crossing a node link: its wire
// bytes land in the load meter under the Table 2 taxonomy class, and the
// matching send/receive processing cost — plus the per-message packet
// multiplex charge for the node's currently open connections — accumulates
// in model units. Called from the conn send/read paths; allocation-free.
func (n *Node) meterMessage(d metrics.Dir, m gnutella.Message) {
	nm := n.metrics
	gnutella.Meter(nm.Load, d, m)
	var u cost.Units
	switch msg := m.(type) {
	case *gnutella.Query:
		if d == metrics.DirIn {
			_, u = cost.RecvQuery(len(msg.Text))
		} else {
			_, u = cost.SendQuery(len(msg.Text))
		}
	case *gnutella.QueryHit:
		a, r := float64(len(msg.Responders)), float64(len(msg.Results))
		if d == metrics.DirIn {
			_, u = cost.RecvResponse(1, a, r)
		} else {
			_, u = cost.SendResponse(1, a, r)
		}
	case *gnutella.Join:
		if d == metrics.DirIn {
			_, u = cost.RecvJoin(len(msg.Files))
		} else {
			_, u = cost.SendJoin(len(msg.Files))
		}
	case *gnutella.Update:
		if d == metrics.DirIn {
			_, u = cost.RecvUpdateCost()
		} else {
			_, u = cost.SendUpdateCost()
		}
	}
	u += cost.PacketMultiplex(int(nm.ConnsOpen.Value()))
	nm.ProcUnits.Add(float64(u))
}
