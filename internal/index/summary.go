package index

import "sort"

// Summary is a content digest of an index (or a union of indexes): the set of
// distinct title terms present. It is what a super-peer advertises to
// overlay neighbors so a routing-index strategy can prune forwards — a query
// can only match behind a link whose aggregated summary contains every query
// term — and what the neighbor stores per link, at cost proportional to
// distinct terms rather than indexed files.
type Summary struct {
	terms map[string]struct{}
}

// Summary digests the index's current content.
func (ix *Index) Summary() *Summary {
	s := &Summary{terms: make(map[string]struct{}, len(ix.postings))}
	for t := range ix.postings {
		s.terms[t] = struct{}{}
	}
	return s
}

// NewSummary builds a summary directly from a term list, as when decoding an
// advertisement received over the wire.
func NewSummary(terms []string) *Summary {
	s := &Summary{terms: make(map[string]struct{}, len(terms))}
	for _, t := range terms {
		s.terms[t] = struct{}{}
	}
	return s
}

// Terms returns the digest's term set, sorted for deterministic encoding.
func (s *Summary) Terms() []string {
	out := make([]string, 0, len(s.terms))
	for t := range s.terms {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// MergeSummary unions srcs into dst and returns it, allocating a fresh
// summary when dst is nil. Nil sources are skipped. Merging is how a
// super-peer aggregates term sets along overlay edges: the digest for a link
// is the merge of every index reachable through it.
func MergeSummary(dst *Summary, srcs ...*Summary) *Summary {
	if dst == nil {
		dst = &Summary{terms: make(map[string]struct{})}
	}
	for _, src := range srcs {
		if src == nil {
			continue
		}
		for t := range src.terms {
			dst.terms[t] = struct{}{}
		}
	}
	return dst
}
