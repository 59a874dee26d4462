package p2p_test

import (
	"fmt"
	"testing"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/gnutella"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/stats"
	"spnet/internal/topology"
)

// hopLatency is the lockstep queue's constant per-hop latency.
const hopLatency = 10 * time.Millisecond

// hop is one frame in flight from cluster from to cluster to, arriving at.
type hop struct {
	from, to int
	at       time.Duration
	m        gnutella.Message
}

// lockstep runs one live query core per cluster of a planted instance at
// k = 1 on the simulator's schedule (DESIGN.md §13): one FIFO queue and a
// constant per-hop latency, so frames arrive in the order they were sent. It
// opens no socket and starts no goroutine. A peer link id is the neighbor's
// cluster id, so a send from cluster v on link w arrives at w on link v.
type lockstep struct {
	cores []*p2p.Core
	queue []hop
	// What one search did: the clusters a copy reached, the query copies
	// sent, and the results its own search collected.
	reached []bool
	copies  int
	results int
}

// plantedTitle is every planted file's title and every query's text, so
// with Topics = 1 each query matches every file (f = 1).
const plantedTitle = "planted"

func newLockstep(inst *network.Instance) *lockstep {
	l := &lockstep{}
	for v, cl := range inst.Clusters {
		c := p2p.NewCore(inst.Config.TTL)
		for _, w := range inst.Graph.Neighbors(v, nil) {
			c.AddPeer(int(w))
		}
		for owner := range cl.Clients {
			c.Join(owner, plantedTitle)
		}
		l.cores = append(l.cores, c)
	}
	return l
}

// search has cluster src run one own search and drains the queue.
func (l *lockstep) search(src int, id gnutella.GUID) {
	l.reached = make([]bool, len(l.cores))
	l.reached[src] = true
	l.copies, l.results = 0, 0
	var epoch time.Time
	l.post(src, 0, l.cores[src].Query(p2p.OwnLink, &gnutella.Query{ID: id, Text: plantedTitle}, epoch))
	for len(l.queue) > 0 {
		h := l.queue[0]
		l.queue = l.queue[1:]
		c := l.cores[h.to]
		if q, ok := h.m.(*gnutella.Query); ok {
			l.reached[h.to] = true
			l.post(h.to, h.at, c.Query(h.from, q, epoch.Add(h.at)))
		} else {
			l.post(h.to, h.at, c.Respond(h.from, h.m))
		}
	}
}

// post queues cluster v's sends at time at, and collects what reaches its
// own search.
func (l *lockstep) post(v int, at time.Duration, sends []p2p.Send) {
	for _, s := range sends {
		if s.Link() == p2p.OwnLink {
			if hit, ok := s.Msg().(*gnutella.QueryHit); ok {
				l.results += len(hit.Results)
			}
			continue
		}
		if _, ok := s.Msg().(*gnutella.Query); ok {
			l.copies++
		}
		l.queue = append(l.queue, hop{from: v, to: s.Link(), at: at + hopLatency, m: s.Msg()})
	}
}

// TestLockstepPlanted drives the live query core hop for hop over planted
// instances and holds each search to the paper's model exactly: the reached
// clusters are the BFS ball of radius TTL, the copies sent are the
// forward-once count under FIFO delivery — deg(src), plus deg(v) − 1 for
// every cluster v with 0 < dist(v) < TTL — and the results collected are
// analysis.Evaluate's E[R_S], exact on a planted instance with one topic.
func TestLockstepPlanted(t *testing.T) {
	plod, err := topology.PowerLaw(topology.PLODParams{N: 12, AvgDeg: 3}, stats.NewRNG(44))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, g := range []struct {
		name string
		g    topology.Graph
	}{
		{"ring", topology.Ring(6)},
		{"star", topology.Star(5)},
		{"clique", topology.NewClique(5)},
		{"plod", plod},
	} {
		for ttl := 1; ttl <= 4; ttl++ {
			inst, err := network.NewPlanted(network.Planted{Graph: g.g, Partners: 1, Clients: 3, Topics: 1, QueryRate: 1, QueryLen: len(plantedTitle), TTL: ttl})
			if err != nil {
				t.Fatal(err)
			}
			model := analysis.Evaluate(inst)
			l := newLockstep(inst)
			for src := 0; src < g.g.N(); src++ {
				name := fmt.Sprintf("%s ttl %d src %d", g.name, ttl, src)
				l.search(src, gnutella.GUID{byte(src), byte(ttl), 0x5e})
				ball := topology.BFS(g.g, src, ttl, 0)
				copies := g.g.Degree(src)
				for v := range l.reached {
					if d := ball.Depth[v]; (d >= 0) != l.reached[v] {
						t.Errorf("%s: cluster %d at distance %d reached = %v", name, v, d, l.reached[v])
					} else if d > 0 && int(d) < ttl {
						copies += g.g.Degree(v) - 1
					}
				}
				if l.copies != copies {
					t.Errorf("%s: %d query copies sent, want %d", name, l.copies, copies)
				}
				if want := model.SourceResults(src); float64(l.results) != want {
					t.Errorf("%s: %d results collected, model E[R_S] = %v", name, l.results, want)
				}
			}
		}
	}
	t.Logf("%v for every search", time.Since(start))
}
