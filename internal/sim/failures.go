package sim

import "slices"

// FailureOptions inject super-peer failures, quantifying the reliability
// argument of Section 3.2: "if one partner fails, the others may continue to
// service clients and neighbors until a new partner can be found. The
// probability that all partners will fail before any failed partner can be
// replaced is much lower than the probability of a single super-peer
// failing."
//
// Failures replay Schedule on fixed partner slots:
//   - Slots. Each cluster keeps a fixed slot table, seeded from the
//     instance's partners; promoting a client or splitting a cluster adds
//     slots. An event kills the partner in slot (Cluster, Partner) if that
//     slot is up. An event for a slot that is already down, or for a
//     dissolved cluster, is dropped, as the live fleet drops a kill of a
//     dead process.
//   - Recovery. A slot comes back RecoveryDelay after its own failure, with
//     the failed partner's files and lifespan. Clients join it and a
//     co-partner hands over its collection.
//   - Dark clusters. A cluster is dark while every slot is down: its clients'
//     queries are lost and overlay traffic to it is dropped, and under
//     Adaptive it makes no decision. The first replacement ends the outage,
//     every client re-joins, and the adaptive load window starts afresh.
type FailureOptions struct {
	// RecoveryDelay is how long it takes to find and provision a
	// replacement partner after a failure, in seconds.
	RecoveryDelay float64
	// Schedule is the failure history, in virtual seconds from the start of
	// the run. ExponentialSchedule draws the per-slot MTBF process, and the
	// same schedule drives the live harness.
	Schedule Schedule
}

// scheduleFailures installs the failure schedule. Events for clusters the
// instance does not have are dropped.
func (s *Simulator) scheduleFailures() {
	if s.opts.Failures == nil {
		return
	}
	for _, ev := range s.opts.Failures.Schedule.Truncate(s.opts.Duration) {
		if ev.Cluster < 0 || ev.Cluster >= len(s.clusters) {
			continue
		}
		c, slot := s.clusters[ev.Cluster], ev.Partner
		s.sched.schedule(ev.At, func() {
			if slot >= 0 && slot < len(c.slots) && !c.down && c.slots[slot].alive() {
				s.failSlot(c, slot)
			}
		})
	}
}

// failSlot takes the partner in slot i out of service. Its co-partners keep
// serving the virtual super-peer (the redundancy payoff). The last partner
// stays seated, so the cluster is dark rather than dissolved.
func (s *Simulator) failSlot(c *clusterNode, i int) {
	s.failuresInjected++
	if len(c.partners) > 1 {
		failed := c.slots[i]
		c.setPartners(slices.DeleteFunc(c.partners, func(p *partnerNode) bool { return p == failed }))
	} else {
		c.down = true
	}
	s.sched.schedule(s.opts.Failures.RecoveryDelay, func() { s.recoverSlot(c, i) })
}

// recoverSlot seats a replacement in slot i with the failed partner's files
// and lifespan. Every client ships its metadata to it and the first
// co-partner hands over its collection. In a dark cluster the replacement
// takes the dead partner's seat and ends the outage.
func (s *Simulator) recoverSlot(c *clusterNode, i int) {
	if c.dissolved() {
		return
	}
	failed := c.slots[i]
	p := &partnerNode{cluster: c, files: failed.files, lifespan: failed.lifespan}
	c.slots[i] = p
	if c.down {
		c.down = false
		c.partners[0] = p // the dead partner's seat
		if c.adaptive != nil {
			s.observedLoad(c) // the outage is no load measurement: restart the window
		}
	} else {
		c.setPartners(append(c.partners, p))
	}
	for _, cl := range c.clients {
		s.clientJoinOne(cl, p)
	}
	s.partnerRejoin(c.partners[0])
	s.startPartnerProcesses(p, false)
}
