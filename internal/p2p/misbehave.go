package p2p

import (
	"sync"

	"spnet/internal/gnutella"
	"spnet/internal/stats"
)

// misForgedResults is the fabricated result count a forging node claims per
// forged QueryHit — matching the simulator's advForgedResults so the two
// layers model the same attack.
const misForgedResults = 3

// MisbehaveOptions turn a live node into an adversary — the working-system
// counterpart of sim.AdversaryOptions, used by the reliability harness and
// the trustsweep experiment to plant malicious super-peers in a real overlay.
// Each decision is an independent draw from a seeded stream, so a fixed seed
// gives a fixed misbehavior sequence for a fixed message order.
type MisbehaveOptions struct {
	// Drop is the probability a query is silently discarded instead of
	// processed (freeloading) — a forwarded overlay query, or a local
	// client's own query, which the client observes only as an empty
	// result window. Mirrors sim.AdversaryOptions.Drop.
	Drop float64
	// Forge is the probability the node answers a forwarded overlay query
	// with a fabricated QueryHit: claimed results with no dialable client
	// behind any of them.
	Forge float64
	// BusyLie is the probability a local client's query is refused with
	// Busy despite available capacity.
	BusyLie float64
	// ForgeChunk is the probability a served data chunk's payload is
	// corrupted before send — the transfer-plane forgery the downloader's
	// manifest hash check must catch and debit through trust. Manifests are
	// never corrupted: the attack modeled is data poisoning, not denial.
	ForgeChunk float64
	// Seed seeds the misbehavior draw stream.
	Seed uint64
}

// misbehaveState is a node's adversary machinery, nil on honest nodes. The
// query core draws from it for queries, and forgeChunk for served chunks.
type misbehaveState struct {
	mu   sync.Mutex
	opts MisbehaveOptions
	rng  *stats.RNG
}

func newMisbehaveState(opts *MisbehaveOptions) *misbehaveState {
	if opts == nil {
		return nil
	}
	return &misbehaveState{opts: *opts, rng: stats.NewRNG(opts.Seed)}
}

// draw spends one Bernoulli(p) sample from the misbehavior stream.
func (m *misbehaveState) draw(p float64) bool {
	if p <= 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rng.Float64() < p
}

func (m *misbehaveState) forgeChunk() bool {
	return m != nil && m.draw(m.opts.ForgeChunk)
}

// forgeQueryHit fabricates the hit a forging node sends back for a relayed
// query: misForgedResults claimed matches, titled after the query text so a
// learning routing strategy would credit them, all referencing a responder
// record with no dialable address — the tell trust validation keys on.
func forgeQueryHit(q *gnutella.Query) *gnutella.QueryHit {
	h := &gnutella.QueryHit{ID: q.ID, TTL: 1, Hops: q.Hops}
	h.Responders = append(h.Responders, gnutella.ResponderRecord{ResultCount: misForgedResults})
	for i := 0; i < misForgedResults; i++ {
		h.Results = append(h.Results, gnutella.ResultRecord{
			FileIndex: uint32(i), AddrRef: 0, Title: q.Text,
		})
	}
	return h
}

// hitLooksForged reports whether no claimed result in h is backed by a
// dialable responder address. Honest hits always carry the responding
// clients' real TCP addresses (recorded when each joins), so an all-zero
// responder set marks a fabricated hit.
func hitLooksForged(h *gnutella.QueryHit) bool {
	if len(h.Responders) == 0 {
		return true
	}
	for _, r := range h.Responders {
		if r.Port != 0 {
			return false
		}
	}
	return true
}
