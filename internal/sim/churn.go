package sim

import (
	"spnet/internal/cost"
	"spnet/internal/metrics"
)

// chargeClientToPartner charges one client→partner control message: b wire
// bytes in class, sendU processing units at the client, recvU at the partner
// (reception plus any handling), with packet-multiplex overhead on both ends.
// Every client-to-super-peer interaction (query submission, join, update)
// goes through here so the charge order is identical across paths.
func (s *Simulator) chargeClientToPartner(c *clientNode, p *partnerNode, class metrics.Class, b, sendU, recvU float64) {
	c.counters.addOut(class, b)
	c.counters.procU += sendU
	s.pmClient(c)
	p.counters.addIn(class, b)
	p.counters.procU += recvU
	s.pmPartner(p)
}

// chargePartnerToPartner is chargeClientToPartner for a message between two
// super-peer partners (co-partner join and update shipping).
func (s *Simulator) chargePartnerToPartner(from, to *partnerNode, class metrics.Class, b, sendU, recvU float64) {
	from.counters.addOut(class, b)
	from.counters.procU += sendU
	s.pmPartner(from)
	to.counters.addIn(class, b)
	to.counters.procU += recvU
	s.pmPartner(to)
}

// chargePartnerToClient is the downstream direction: a super-peer responding
// to one of its clients.
func (s *Simulator) chargePartnerToClient(p *partnerNode, c *clientNode, class metrics.Class, b, sendU, recvU float64) {
	p.counters.addOut(class, b)
	p.counters.procU += sendU
	s.pmPartner(p)
	c.counters.addIn(class, b)
	c.counters.procU += recvU
	s.pmClient(c)
}

// clientJoin charges the join interaction: the client sends its metadata to
// each partner; each partner receives it and adds it to its index.
func (s *Simulator) clientJoin(c *clientNode) {
	if c.cluster.down {
		return // no partner to join until the cluster recovers
	}
	if s.contentMode() {
		s.contentReindexClient(c)
	}
	jb, jpS := cost.SendJoin(c.files)
	_, jpR := cost.RecvJoin(c.files)
	jpP := cost.ProcessJoin(c.files)
	for _, p := range c.cluster.partners {
		s.chargeClientToPartner(c, p, metrics.ClassJoin,
			float64(jb), float64(jpS), float64(jpR)+float64(jpP))
	}
}

// clientJoinOne ships one client's metadata to a single partner (used when a
// new partner builds its index).
func (s *Simulator) clientJoinOne(c *clientNode, p *partnerNode) {
	jb, jpS := cost.SendJoin(c.files)
	_, jpR := cost.RecvJoin(c.files)
	s.chargeClientToPartner(c, p, metrics.ClassJoin,
		float64(jb), float64(jpS), float64(jpR)+float64(cost.ProcessJoin(c.files)))
}

// partnerRejoin mirrors the super-peer's own collection maintenance: the
// partner re-indexes its own files, and with redundancy also ships them to
// its co-partner.
func (s *Simulator) partnerRejoin(p *partnerNode) {
	if p.cluster.down {
		return
	}
	p.counters.procU += float64(cost.ProcessJoin(p.files))
	for _, co := range p.cluster.partners {
		if co == p {
			continue
		}
		jb, jpS := cost.SendJoin(p.files)
		_, jpR := cost.RecvJoin(p.files)
		s.chargePartnerToPartner(p, co, metrics.ClassJoin,
			float64(jb), float64(jpS), float64(jpR)+float64(cost.ProcessJoin(p.files)))
	}
}

// clientUpdate charges one collection update: the client notifies every
// partner, and each partner applies the change to its index.
func (s *Simulator) clientUpdate(c *clientNode) {
	if c.cluster.down {
		return
	}
	ub, upS := cost.SendUpdateCost()
	_, upR := cost.RecvUpdateCost()
	upP := cost.ProcessUpdateCost()
	for _, p := range c.cluster.partners {
		s.chargeClientToPartner(c, p, metrics.ClassUpdate,
			float64(ub), float64(upS), float64(upR)+float64(upP))
	}
}

// partnerUpdate charges a super-peer's own collection update: applied
// locally, and with redundancy also shipped to the co-partner.
func (s *Simulator) partnerUpdate(p *partnerNode) {
	if p.cluster.down {
		return
	}
	p.counters.procU += float64(cost.ProcessUpdateCost())
	ub, upS := cost.SendUpdateCost()
	_, upR := cost.RecvUpdateCost()
	for _, co := range p.cluster.partners {
		if co == p {
			continue
		}
		s.chargePartnerToPartner(p, co, metrics.ClassUpdate,
			float64(ub), float64(upS), float64(upR)+float64(cost.ProcessUpdateCost()))
	}
}
