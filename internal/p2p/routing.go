package p2p

import (
	"strings"

	"spnet/internal/gnutella"
	"spnet/internal/index"
)

// summariesChanged recomputes the routing-index advert for every peer link
// and ships a Summary to each link whose advert changed. The advert sent to
// link P is split-horizon: the local index digest merged with the summaries
// every OTHER link advertised to us — the term-set form of Crespo &
// Garcia-Molina's routing indices. Change-only sends make re-advertisement
// cascades converge even over overlay cycles. Call after anything that moves
// the local index (client join/update/leave) or the neighbor summary set
// (summary receipt, link up/down). No-op unless the strategy uses summaries.
func (n *Node) summariesChanged() {
	if !n.routeSummaries {
		return
	}
	n.sumMu.Lock()
	defer n.sumMu.Unlock()

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	local := n.core.index.Summary()
	peers := n.peerListLocked()
	n.mu.Unlock()

	type advert struct {
		p     *conn
		terms []string
	}
	var sends []advert
	for _, p := range peers {
		merged := index.MergeSummary(nil, local)
		for _, q := range peers {
			if q == p {
				continue
			}
			if ts := n.core.rstate.SummaryTermList(q.peerID); ts != nil {
				merged = index.MergeSummary(merged, index.NewSummary(ts))
			}
		}
		terms := merged.Terms() // sorted, so the change key is canonical
		key := strings.Join(terms, "\x00")
		if p.sentAdvert == key {
			continue
		}
		p.sentAdvert = key
		sends = append(sends, advert{p: p, terms: terms})
	}
	for _, a := range sends {
		if err := a.p.send(&gnutella.Summary{ID: gnutella.NewGUID(), TTL: 1, Terms: a.terms}); err != nil {
			n.opts.Logf("p2p: summary to %s: %v", a.p.RemoteAddr(), err)
		}
	}
}

// RoutingInfo reports the live routing state: the strategy name, how many
// peer links have advertised a content summary, and the total advertised
// terms across those links. Experiments poll it to detect summary
// convergence before measuring.
func (n *Node) RoutingInfo() (strategy string, links, terms int) {
	n.mu.Lock()
	peers := n.peerListLocked()
	n.mu.Unlock()
	for _, p := range peers {
		if t := n.core.rstate.SummaryTerms(p.peerID); t >= 0 {
			links++
			terms += t
		}
	}
	return n.core.strategy.Name(), links, terms
}
