package sim

import (
	"fmt"

	"spnet/internal/gnutella"
	"spnet/internal/metrics"
	"spnet/internal/stats"
	"spnet/internal/trust"
)

// adversarySeedSalt decorrelates the adversary RNG root from the simulation
// seed, exactly as routingSeedSalt does for strategy randomness: every
// misbehavior draw, malicious assignment, and noisy reliability prior comes
// from NewRNG(Seed ^ salt), so a run with Options.Adversary == nil draws
// nothing from this stream and stays bit-identical to the golden values.
const adversarySeedSalt = 0x616476657273726e // "adversrn"

// advForgedResults is the fabricated result count a forging relay claims.
const advForgedResults = 3

// advObserveWindow is how long (virtual seconds) a trusting client waits
// after submitting a query before scoring its access partner on whether any
// genuine result arrived — comfortably past the worst-case response RTT at
// default latency and TTL.
const advObserveWindow = 2.0

// AdversaryOptions plant misbehaving super-peer partners in the simulated
// overlay — the iris spread exemplar's reliability model brought to the
// super-peer setting. A malicious partner freeloads (silently drops queries
// it should serve and forward), forges QueryHits to attract traffic, and
// Busy-lies to its own clients despite having capacity. Trust turns on the
// reputation response: clients pick access partners and super-peers pick
// neighbor partners by beta-posterior reliability scores (internal/trust),
// seeded with noisy initial views, and forged responses are audited and
// dropped before they can credit the learned routing strategy.
//
// All adversary randomness draws from a stream independent of the simulation
// stream, so honest runs (Adversary == nil, and equally the zero value) are
// bit-identical to runs without this subsystem. Incompatible with Adaptive
// and Failures, which re-home partners across clusters and would invalidate
// the stable partner identities reputation is keyed by.
type AdversaryOptions struct {
	// Fraction of super-peer partner nodes that misbehave, in [0, 1].
	// Assignment is a seeded shuffle over all partners.
	Fraction float64
	// Malicious, when non-nil, overrides Fraction: it reports whether the
	// partner at the given cluster id and partner slot misbehaves. Tests
	// and experiments use it to plant adversaries deterministically.
	Malicious func(cluster, slot int) bool
	// Drop is the probability a malicious partner silently discards a query
	// — at its own cluster when a client submits one, or at a relay hop.
	Drop float64
	// Forge is the probability a malicious relay fabricates a QueryHit
	// (advForgedResults claimed results) for a query it relays.
	Forge float64
	// BusyLie is the probability a malicious partner refuses its own
	// client's query with a Busy despite having capacity.
	BusyLie float64
	// Trust enables reputation-weighted partner selection and forged-hit
	// auditing (the defense being measured; off = trust-oblivious baseline).
	Trust bool
	// PriorNoise is the stddev of the rel_book-style noisy initial
	// reliability views (default 0.25; negative = exact views). Views
	// reflect only observable misbehavior (dropping, Busy-lying) — forging
	// is covert until the audit catches it.
	PriorNoise float64
	// PriorWeight is the pseudo-count weight of the initial views
	// (default 4).
	PriorWeight float64
	// NeutralPriors starts every reputation book at the uninformative 0.5
	// score instead of noisy initial views, isolating what online
	// observation alone recovers.
	NeutralPriors bool
}

// advQueryRecord tracks one source query's outcome for the adversarial
// metrics: genuine results exclude fabricated ones, so lost-fraction and
// spread percentiles measure real recall even when forged hits are accepted.
type advQueryRecord struct {
	client  bool // submitted by a client (vs a super-peer's own query)
	genuine int
	forged  int
}

// advState is the simulator's adversary bookkeeping, allocated only when
// Options.Adversary is non-nil.
type advState struct {
	opts *AdversaryOptions
	rng  *stats.RNG

	records  []*advQueryRecord
	recordBy map[uint64]*advQueryRecord

	busyLies       int
	clientDrops    int
	relayDrops     int
	forged         int
	forgedAccepted int
	forgedDetected int
}

// adversaryMode reports whether misbehaving peers are planted.
func (s *Simulator) adversaryMode() bool { return s.adv != nil }

// initAdversary assigns malicious partners and, when Trust is on, seeds
// every client's and cluster's reputation book with noisy priors. Partner
// enumeration order (cluster id ascending, partner slot ascending) fixes the
// advID namespace the overlay books are keyed by.
func (s *Simulator) initAdversary() error {
	a := s.opts.Adversary
	if s.opts.Adaptive != nil {
		return fmt.Errorf("sim: adversary mode is incompatible with adaptive mode")
	}
	if s.opts.Failures != nil {
		return fmt.Errorf("sim: adversary mode is incompatible with failure injection")
	}
	for _, v := range []struct {
		name string
		v    float64
	}{{"Fraction", a.Fraction}, {"Drop", a.Drop}, {"Forge", a.Forge}, {"BusyLie", a.BusyLie}} {
		if v.v < 0 || v.v > 1 {
			return fmt.Errorf("sim: Adversary.%s = %v, want in [0, 1]", v.name, v.v)
		}
	}
	noise := a.PriorNoise
	if noise == 0 {
		noise = 0.25
	} else if noise < 0 {
		noise = 0
	}
	weight := a.PriorWeight
	if weight <= 0 {
		weight = 4
	}

	s.adv = &advState{
		opts:     a,
		rng:      stats.NewRNG(s.opts.Seed ^ adversarySeedSalt),
		recordBy: make(map[uint64]*advQueryRecord),
	}
	var partners []*partnerNode
	for _, c := range s.clusters {
		for slot, p := range c.partners {
			p.advID = len(partners)
			partners = append(partners, p)
			if a.Malicious != nil {
				p.malicious = a.Malicious(c.id, slot)
			}
		}
	}
	if a.Malicious == nil {
		malicious := trust.Assign(s.adv.rng, len(partners), a.Fraction)
		for i, p := range partners {
			p.malicious = malicious[i]
		}
	}
	if !a.Trust {
		return nil
	}
	rel := func(p *partnerNode) float64 {
		if !p.malicious {
			return 1
		}
		return (1 - a.Drop) * (1 - a.BusyLie)
	}
	for _, c := range s.clusters {
		c.trustBook = trust.NewBook()
		if !a.NeutralPriors {
			for _, nb := range c.neighbors {
				for _, p := range nb.partners {
					c.trustBook.SetPrior(p.advID, trust.NoisyPrior(s.adv.rng, rel(p), noise), weight)
				}
			}
		}
		for _, cl := range c.clients {
			cl.trustBook = trust.NewBook()
			if !a.NeutralPriors {
				for i, p := range c.partners {
					cl.trustBook.SetPrior(i, trust.NoisyPrior(s.adv.rng, rel(p), noise), weight)
				}
			}
		}
	}
	return nil
}

// advPickPartner selects the access partner for a client query: the
// highest-scoring partner slot under trust, round-robin otherwise. It
// returns the partner and its slot index.
func (s *Simulator) advPickPartner(c *clientNode) (*partnerNode, int) {
	k := len(c.cluster.partners)
	if s.adversaryMode() && s.adv.opts.Trust && c.trustBook != nil && k > 1 {
		best, bestScore := 0, -1.0
		for i := 0; i < k; i++ {
			if sc := c.trustBook.Score(i); sc > bestScore {
				best, bestScore = i, sc
			}
		}
		return c.cluster.partners[best], best
	}
	i := c.rr % k
	c.rr++
	return c.cluster.partners[i], i
}

// advPickNeighborPartner selects which partner of neighbor cluster nb a
// query copy from cluster `from` targets: the best-reputed partner under
// trust, round-robin otherwise.
func (s *Simulator) advPickNeighborPartner(from, nb *clusterNode) *partnerNode {
	if s.adversaryMode() && s.adv.opts.Trust && from != nil && from.trustBook != nil && len(nb.partners) > 1 {
		best, bestScore := nb.partners[0], -1.0
		for _, p := range nb.partners {
			if sc := from.trustBook.Score(p.advID); sc > bestScore {
				best, bestScore = p, sc
			}
		}
		return best
	}
	target := nb.partners[nb.rrOut%len(nb.partners)]
	nb.rrOut++
	return target
}

// advNewRecord opens an outcome record for a source query. id < 0 means the
// query never entered the network (dropped or refused at the access
// partner) and gets no response routing entry.
func (s *Simulator) advNewRecord(id int64, client bool) *advQueryRecord {
	if !s.adversaryMode() {
		return nil
	}
	rec := &advQueryRecord{client: client}
	s.adv.records = append(s.adv.records, rec)
	if id >= 0 {
		s.adv.recordBy[uint64(id)] = rec
	}
	return rec
}

// advRecord returns the outcome record for query id, or nil.
func (s *Simulator) advRecord(id uint64) *advQueryRecord {
	if !s.adversaryMode() {
		return nil
	}
	return s.adv.recordBy[id]
}

// advObserveClient schedules the client's reputation observation of the
// access partner it used: good iff any genuine result arrived within the
// observation window. rec may be a refused/dropped query's record (genuine
// stays 0, an unambiguous bad observation).
func (s *Simulator) advObserveClient(c *clientNode, slot int, rec *advQueryRecord) {
	if rec == nil || !s.adv.opts.Trust || c.trustBook == nil {
		return
	}
	s.sched.schedule(advObserveWindow, func() {
		if c.alive() {
			c.trustBook.Observe(slot, rec.genuine > 0)
		}
	})
}

// advBusyLie handles a malicious access partner refusing a client's query:
// a Busy frame goes back, the client scores the refusal immediately, and
// the query is lost.
func (s *Simulator) advBusyLie(p *partnerNode, c *clientNode, slot int) {
	s.adv.busyLies++
	b := float64(gnutella.PingSize()) // Busy frames are ping-sized
	s.chargePartnerToClient(p, c, metrics.ClassBusy, b, s.sendQProc, s.recvQProc)
	if s.adv.opts.Trust && c.trustBook != nil {
		c.trustBook.Observe(slot, false)
	}
}

// advMeasure folds the adversary counters and per-query outcome statistics
// into the run's Measured.
func (s *Simulator) advMeasure(m *Measured) {
	if !s.adversaryMode() {
		return
	}
	m.QueriesRefused = s.adv.busyLies
	m.QueriesDroppedMalicious = s.adv.clientDrops
	m.RelayDropsMalicious = s.adv.relayDrops
	m.ForgedResponses = s.adv.forged
	m.ForgedAccepted = s.adv.forgedAccepted
	m.ForgedDetected = s.adv.forgedDetected
	var genuine []float64
	total := 0.0
	for _, r := range s.adv.records {
		if !r.client {
			continue
		}
		genuine = append(genuine, float64(r.genuine))
		total += float64(r.genuine)
		if r.genuine == 0 {
			m.ClientQueriesUnanswered++
		}
	}
	m.ClientQueriesTracked = len(genuine)
	if len(genuine) > 0 {
		m.GenuineResultsPerQuery = total / float64(len(genuine))
		m.SpreadP50 = stats.Percentile(genuine, 50)
		m.SpreadP90 = stats.Percentile(genuine, 90)
		m.SpreadP99 = stats.Percentile(genuine, 99)
	}
}
