package sim

import (
	"slices"

	"spnet/internal/faults"
)

// FailureOptions inject super-peer failures, quantifying the reliability
// argument of Section 3.2: "if one partner fails, the others may continue to
// service clients and neighbors until a new partner can be found. The
// probability that all partners will fail before any failed partner can be
// replaced is much lower than the probability of a single super-peer
// failing."
type FailureOptions struct {
	// MTBF is each partner's mean time between failures in seconds
	// (exponentially distributed).
	MTBF float64
	// RecoveryDelay is how long it takes to find and provision a
	// replacement partner after a failure, in seconds.
	RecoveryDelay float64
	// Schedule, when non-empty, replays a fixed failure schedule (virtual
	// seconds from simulation start) instead of the stochastic MTBF
	// process. The same schedule can drive the live harness. At k = 1 the
	// two execute it event for event. At k >= 2 they part once a partner is
	// down: replay indexes the cluster's surviving partners, so events for
	// the dead slot or the slots after it strike the wrong partner or are
	// dropped.
	Schedule faults.Schedule
}

// replayMode reports whether failures come from a fixed schedule.
func (f *FailureOptions) replayMode() bool { return len(f.Schedule) > 0 }

// failureState tracks a cluster's outage bookkeeping.
type failureState struct {
	// down is true while the cluster has no live partner: clients are
	// disconnected and overlay traffic to the cluster is lost.
	down bool
}

// scheduleFailures installs the per-partner failure process for a cluster.
func (s *Simulator) scheduleFailures(c *clusterNode) {
	f := s.opts.Failures
	if f == nil || (f.MTBF <= 0 && !f.replayMode()) {
		return
	}
	if c.failures == nil {
		c.failures = &failureState{}
	}
	for _, p := range c.partners {
		s.schedulePartnerFailure(p)
	}
}

// schedulePartnerFailure arms the stochastic failure clock for one partner.
// In replay mode there is no per-partner clock: scheduleReplay installs the
// fixed events once for the whole run.
func (s *Simulator) schedulePartnerFailure(p *partnerNode) {
	f := s.opts.Failures
	if f.replayMode() || f.MTBF <= 0 {
		return
	}
	s.sched.schedule(s.rng.ExpFloat64()*f.MTBF, func() {
		if !p.alive() || p.cluster.isDown() {
			return
		}
		s.failPartner(p)
	})
}

// scheduleReplay installs a fixed failure schedule: each event kills the
// given partner slot of the given cluster at its virtual time. Events aimed
// at a dark cluster, or at an index past its surviving partners, are
// dropped. The index counts survivors, not the live fleet's fixed slots, so
// only at k = 1 does a drop mirror a live kill of an already-dead process.
func (s *Simulator) scheduleReplay() {
	for _, ev := range s.opts.Failures.Schedule.Truncate(s.opts.Duration) {
		ev := ev
		if ev.Cluster < 0 || ev.Cluster >= len(s.clusters) {
			continue
		}
		c := s.clusters[ev.Cluster]
		s.sched.schedule(ev.At, func() {
			if c.dissolved() || c.isDown() ||
				ev.Partner < 0 || ev.Partner >= len(c.partners) {
				return
			}
			s.failPartner(c.partners[ev.Partner])
		})
	}
}

func (c *clusterNode) isDown() bool { return c.failures != nil && c.failures.down }

// failPartner takes one partner out of service. With co-partners remaining,
// the virtual super-peer keeps serving (the redundancy payoff); otherwise the
// whole cluster goes dark until recovery.
func (s *Simulator) failPartner(p *partnerNode) {
	c := p.cluster
	s.failuresInjected++

	if len(c.partners) > 1 {
		// Remove the failed partner; the co-partners carry on.
		if i := slices.Index(c.partners, p); i >= 0 {
			c.setPartners(slices.Delete(c.partners, i, i+1))
		}
		s.sched.schedule(s.opts.Failures.RecoveryDelay, func() {
			// If the whole cluster went dark in the meantime, the full
			// recovery below restores the redundancy level instead.
			if c.dissolved() || c.isDown() || len(c.partners) >= c.targetPartners {
				return
			}
			s.replacePartner(c, p.files, p.lifespan)
		})
		return
	}

	// Single super-peer: the cluster is dark until a replacement arrives.
	c.failures.down = true
	s.sched.schedule(s.opts.Failures.RecoveryDelay, func() { s.recoverCluster(c) })
}

// replacePartner provisions a new partner: every client ships its metadata
// to it and one surviving co-partner hands over its collection, after which
// the partner resumes normal service (including its own failure process).
func (s *Simulator) replacePartner(c *clusterNode, files int, lifespan float64) {
	p := &partnerNode{cluster: c, files: files, lifespan: lifespan}
	c.setPartners(append(c.partners, p))
	for _, cl := range c.clients {
		s.clientJoinOne(cl, p)
	}
	s.partnerRejoin(c.partners[0])
	s.startPartnerProcesses(p, false)
	s.schedulePartnerFailure(p)
}

// recoverCluster brings a dark cluster back: a statistically identical
// replacement super-peer re-occupies the slot (stable population), the
// cluster's redundancy level is restored with freshly provisioned partners,
// and every client re-joins.
func (s *Simulator) recoverCluster(c *clusterNode) {
	if c.dissolved() {
		return
	}
	c.failures.down = false
	s.schedulePartnerFailure(c.partners[0])
	for len(c.partners) < c.targetPartners {
		p := &partnerNode{
			cluster:  c,
			files:    s.prof.Files.Sample(s.rng),
			lifespan: s.prof.Lifespans.Sample(s.rng),
		}
		c.setPartners(append(c.partners, p))
		s.partnerRejoin(c.partners[0])
		s.startPartnerProcesses(p, false)
		s.schedulePartnerFailure(p)
	}
	for _, cl := range c.clients {
		s.clientJoin(cl)
	}
}
