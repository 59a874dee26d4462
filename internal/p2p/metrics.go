package p2p

import (
	"spnet/internal/cost"
	"spnet/internal/gnutella"
	"spnet/internal/metrics"
)

// meterMessage attributes one message crossing a node link, decoded or a
// Frame alike: its wire bytes land in the load meter under the Table 2
// taxonomy class, and the matching send/receive processing cost — plus the
// per-message packet multiplex charge for the node's currently open
// connections — accumulates in model units. The counts Table 2 prices by
// come from the type and wire size (and a hit's responder count), which a
// frame's header and length fix. Called from the conn send/read paths;
// allocation-free.
func (n *Node) meterMessage(d metrics.Dir, m gnutella.Message) {
	nm := n.metrics
	gnutella.Meter(nm.Load, d, m)
	in, size := d == metrics.DirIn, m.WireSize()
	var u cost.Units
	switch m.Type() {
	case gnutella.TypeQuery:
		if text := size - gnutella.QueryFixedLen; in {
			_, u = cost.RecvQuery(text)
		} else {
			_, u = cost.SendQuery(text)
		}
	case gnutella.TypeQueryHit:
		addrs := gnutella.HitResponders(m)
		a := float64(addrs)
		r := float64((size - gnutella.ResponseFixedLen - gnutella.ResponderRecordLen*addrs) / gnutella.ResultRecordLen)
		if in {
			_, u = cost.RecvResponse(1, a, r)
		} else {
			_, u = cost.SendResponse(1, a, r)
		}
	case gnutella.TypeJoin:
		if files := (size - gnutella.JoinFixedLen) / gnutella.MetadataRecordLen; in {
			_, u = cost.RecvJoin(files)
		} else {
			_, u = cost.SendJoin(files)
		}
	case gnutella.TypeUpdate:
		if in {
			_, u = cost.RecvUpdateCost()
		} else {
			_, u = cost.SendUpdateCost()
		}
	}
	u += cost.PacketMultiplex(int(nm.ConnsOpen.Value()))
	nm.ProcUnits.Add(float64(u))
}
