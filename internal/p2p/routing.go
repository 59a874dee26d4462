package p2p

import (
	"encoding/binary"
	"sort"
	"strings"

	"spnet/internal/gnutella"
	"spnet/internal/index"
	"spnet/internal/routing"
)

// selectPeers runs the node's routing strategy over a snapshot of peer links
// (taken under n.mu by the caller) and returns the links the query copy q
// should go to. q's Hops is the query's overlay distance at the forwarding
// decision: 0 when this node sources the query, >= 1 when relaying. Called
// outside n.mu — strategy state locks internally. The snapshot is sorted by
// peer id so candidate order (and any seeded randomness over it) is stable.
func (n *Node) selectPeers(peers []*conn, q *gnutella.Query) []*conn {
	if len(peers) == 0 {
		return peers
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].peerID < peers[j].peerID })
	terms := titleTerms(q.Text)
	cands := make([]routing.Candidate, len(peers))
	for i, p := range peers {
		cands[i] = routing.Candidate{ID: p.peerID}
	}
	rq := routing.Query{
		ID:    binary.LittleEndian.Uint64(q.ID[:8]),
		Terms: terms,
		TTL:   int(q.TTL),
		Hops:  int(q.Hops),
	}
	sel := n.route.Select(nil, rq, cands, n.rstate)
	out := make([]*conn, 0, len(sel))
	for _, i := range sel {
		p := peers[i]
		if n.routeLearns {
			n.rstate.RecordForward(p.peerID, terms)
		}
		out = append(out, p)
	}
	n.metrics.QueriesForwarded.Add(int64(len(out)))
	return out
}

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
	local := n.index.Summary()
	peers := n.peerListLocked(nil)
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
			if ts := n.rstate.SummaryTermList(q.peerID); ts != nil {
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
	peers := n.peerListLocked(nil)
	n.mu.Unlock()
	for _, p := range peers {
		if t := n.rstate.SummaryTerms(p.peerID); t >= 0 {
			links++
			terms += t
		}
	}
	return n.route.Name(), links, terms
}
