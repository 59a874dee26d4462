// Package topology provides the overlay-network substrate of the super-peer
// evaluation framework: explicit adjacency graphs, implicit cliques (the
// paper's "strongly connected" topologies), the PLOD power-law topology
// generator of Palmer & Steffan used by the paper (Section 4, Step 1), and
// the breadth-first machinery that models query propagation — reach,
// predecessor trees, redundant-edge counting and expected path length (EPL).
package topology

import "fmt"

// Graph is an undirected overlay over nodes 0..N()-1. Neighbors of a node
// are read as a slice; a clique writes them into the caller's buffer so that
// it need not materialize O(n²) edges.
type Graph interface {
	// N returns the number of nodes.
	N() int
	// Degree returns the number of neighbors of node v.
	Degree(v int) int
	// Neighbors returns the neighbors of v in the graph's fixed order. A
	// graph with stored adjacency returns a view of it and ignores buf; an
	// implicit one fills buf[:0], growing it when its capacity is below
	// Degree(v). The result is read-only and valid until buf is reused.
	// Because it may alias graph storage, hand it back as the next buf only
	// to the same graph.
	Neighbors(v int, buf []int32) []int32
	// IsClique reports whether the graph is a complete graph, enabling the
	// analysis engine's closed-form fast path.
	IsClique() bool
}

// AdjGraph is an explicit undirected graph in compressed adjacency form.
type AdjGraph struct {
	offsets []int32 // len n+1; neighbors of v are adj[offsets[v]:offsets[v+1]]
	adj     []int32
}

var _ Graph = (*AdjGraph)(nil)

// NewAdjGraph builds an AdjGraph from an edge list over n nodes. Self-loops
// and duplicate edges are rejected with an error since the overlay model
// treats edges as distinct open connections.
func NewAdjGraph(n int, edges [][2]int) (*AdjGraph, error) {
	deg := make([]int32, n)
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("topology: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("topology: self-loop at node %d", u)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("topology: duplicate edge (%d,%d)", u, v)
		}
		seen[key] = true
		deg[u]++
		deg[v]++
	}
	g := &AdjGraph{
		offsets: make([]int32, n+1),
		adj:     make([]int32, 2*len(edges)),
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	for _, e := range edges {
		u, v := int32(e[0]), int32(e[1])
		g.adj[cursor[u]] = v
		cursor[u]++
		g.adj[cursor[v]] = u
		cursor[v]++
	}
	return g, nil
}

// Ring returns the cycle 0–1–…–(n-1)–0: no edge for one node, a single edge
// for two. Edge i joins node i to its successor, so every node lists its
// predecessor before its successor.
func Ring(n int) *AdjGraph {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	if n > 2 {
		edges = append(edges, [2]int{n - 1, 0})
	}
	return fixedGraph(n, edges)
}

// Star returns a hub (node 0) joined to each of nodes 1..leaves.
func Star(leaves int) *AdjGraph {
	edges := make([][2]int, leaves)
	for i := range edges {
		edges[i] = [2]int{0, i + 1}
	}
	return fixedGraph(leaves+1, edges)
}

// fixedGraph builds a graph whose edge list is valid by construction.
func fixedGraph(n int, edges [][2]int) *AdjGraph {
	g, err := NewAdjGraph(n, edges)
	if err != nil {
		panic(err) // only a bug in the caller's edge list can get here
	}
	return g
}

// N returns the number of nodes.
func (g *AdjGraph) N() int { return len(g.offsets) - 1 }

// Degree returns the number of neighbors of v.
func (g *AdjGraph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns a read-only view of v's neighbor list in edge-insertion
// order; the buffer is not used.
func (g *AdjGraph) Neighbors(v int, _ []int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// IsClique reports whether every node is adjacent to every other.
func (g *AdjGraph) IsClique() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	return len(g.adj) == n*(n-1)
}

// NumEdges returns the number of undirected edges.
func (g *AdjGraph) NumEdges() int { return len(g.adj) / 2 }

// AvgDegree returns the average outdegree of the graph.
func (g *AdjGraph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(len(g.adj)) / float64(g.N())
}

// HasEdge reports whether u and v are adjacent (linear scan of the shorter
// neighbor list; intended for tests and repair, not hot paths).
func (g *AdjGraph) HasEdge(u, v int) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for _, w := range g.Neighbors(u, nil) {
		if int(w) == v {
			return true
		}
	}
	return false
}

// Clique is an implicit complete graph on n nodes: the paper's "strongly
// connected" topology, studied as the best case for result quality and
// bandwidth (Section 4, Step 1). No edges are materialized.
type Clique struct {
	n int
}

var _ Graph = Clique{}

// NewClique returns a complete graph over n nodes.
func NewClique(n int) Clique { return Clique{n: n} }

// N returns the number of nodes.
func (c Clique) N() int { return c.n }

// Degree returns n-1 for every node.
func (c Clique) Degree(v int) int { return c.n - 1 }

// Neighbors writes every node except v, ascending, into buf[:0].
func (c Clique) Neighbors(v int, buf []int32) []int32 {
	buf = buf[:0]
	for w := 0; w < c.n; w++ {
		if w != v {
			buf = append(buf, int32(w))
		}
	}
	return buf
}

// IsClique reports true.
func (c Clique) IsClique() bool { return true }

// AvgDegree returns the average outdegree, n-1.
func (c Clique) AvgDegree() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.n - 1)
}
