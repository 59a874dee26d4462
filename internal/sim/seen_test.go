package sim

import (
	"testing"

	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/topology"
)

// seenPair builds a two-cluster line A–B (one fileless partner each, no
// clients, TTL 2) with a latency that makes every event time in the tests
// below exact in binary, and sources query 0 at A at time 0.
func seenPair(t *testing.T) (s *Simulator, a, b *partnerNode) {
	t.Helper()
	g, err := topology.NewAdjGraph(2, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := network.NewPlanted(network.Planted{
		Graph: g, Partners: 1, Topics: 1, QueryRate: 1, QueryLen: 6, TTL: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err = New(inst, Options{Duration: 10, Latency: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * 0.25; s.clusters[0].seen.span != want {
		t.Fatalf("retention %v, want (2·TTL+1)·Latency = %v", s.clusters[0].seen.span, want)
	}
	a, b = s.clusters[0].partners[0], s.clusters[1].partners[0]
	s.sourceQuery(a, nil)
	return s, a, b
}

// TestLateResponseAtRetentionBound: a Response from beyond B that B relays
// so it reaches A exactly seenRetention after A sourced the query still
// travels the reverse path and is consumed at the source.
func TestLateResponseAtRetentionBound(t *testing.T) {
	s, _, b := seenPair(t)
	lat, bound := s.opts.Latency, s.clusters[0].seen.span
	s.runUntil(lat) // B first sees the query, from A
	s.sched.reserve(bound-2*lat, true).msg = message{kind: msgResponse, id: 0, to: b, addrs: 1, results: 4, hops: 1}
	s.runUntil(bound - lat)
	if got := b.counters.cls.Get(metrics.ClassResponse, metrics.DirOut); got == 0 {
		t.Fatal("B did not relay the response along the reverse path")
	}
	s.runUntil(bound)
	if s.respMsgs != 1 || s.resultsTotal != 4 || s.respHops != 2 {
		t.Fatalf("source consumed %v responses, %v results, %v hops; want 1, 4, 2",
			s.respMsgs, s.resultsTotal, s.respHops)
	}
}

// TestResponsePastRetentionDropped: a Response reaching A twice the bound
// after the query (the first instant its generation is certainly retired)
// is received and charged, then dropped by the path-expired branch.
func TestResponsePastRetentionDropped(t *testing.T) {
	s, a, b := seenPair(t)
	past := 2 * a.cluster.seen.span
	s.sched.reserve(past, true).msg = message{kind: msgResponse, id: 0, to: a, from: b, addrs: 1, results: 4}
	s.runUntil(past)
	if got := a.counters.cls.Get(metrics.ClassResponse, metrics.DirIn); got == 0 {
		t.Fatal("the late response never reached A")
	}
	if s.respMsgs != 0 || s.resultsTotal != 0 {
		t.Fatalf("source consumed %v responses past the bound, want 0", s.respMsgs)
	}
}

// TestSeenTableOccupancy: over the 600-vs golden churn run, no cluster's
// table ever holds more than the queries sourced network-wide during the
// window its entries can come from — two generations plus the TTL·Latency
// a query takes to arrive — with 5× slack for Poisson bursts (the peak is 11
// entries against 2.8 expected). The maps this table replaced held every
// query of the last 60–180 virtual seconds: hundreds per cluster.
func TestSeenTableOccupancy(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 400
	inst := generate(t, cfg, nil, 11)
	const duration = 600
	s, err := New(inst, Options{Duration: duration, Seed: 12, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	events, peak := 0, 0
	for h := 0.05; h < duration+0.025; h += 0.05 {
		events += s.runUntil(h)
		for _, c := range s.clusters {
			peak = max(peak, c.seen.gens[0].n+c.seen.gens[1].n)
		}
	}
	if events != 304427 {
		t.Fatalf("stepped run executed %d events, golden 304427", events)
	}
	rate := float64(inst.NumPeers) * inst.Profile.Rates.QueryRate
	window := 2*s.clusters[0].seen.span + float64(cfg.TTL)*s.opts.Latency
	bound := 5 * rate * window
	t.Logf("peak occupancy %d entries; %.2f queries/s × %.2f s window = %.2f expected", peak, rate, window, rate*window)
	if float64(peak) > bound {
		t.Fatalf("largest seen table held %d entries, bound %.1f", peak, bound)
	}
}
