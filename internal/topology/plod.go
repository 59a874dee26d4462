package topology

import (
	"fmt"
	"math"

	"spnet/internal/stats"
)

// PLODParams configures the power-law topology generator.
//
// The generator follows the PLOD algorithm of Palmer & Steffan ("Generating
// network topologies that obey power laws", GLOBECOM 2000), the generator the
// paper itself uses (Section 4, Step 1): every node receives a degree credit
// drawn from a power law, and random node pairs are connected while both
// endpoints have credit remaining. We add two post-passes the evaluation
// needs: a top-up pass so the realized average outdegree matches the
// configured target (the paper parameterizes topologies by average
// outdegree, e.g. 3.1 for Gnutella), and a connectivity repair pass so that
// no super-peer cluster is isolated from the overlay.
type PLODParams struct {
	N      int     // number of nodes (super-peer clusters)
	AvgDeg float64 // target average outdegree, e.g. 3.1 or 10
	Alpha  float64 // power-law credit exponent; 0 picks the default 0.8
}

// defaultPLODAlpha makes the degree frequency tail f_d ∝ d^-(1+1/α) ≈ d^-2.25,
// close to the exponent measured for Gnutella-era overlays.
const defaultPLODAlpha = 0.8

// PowerLaw generates a connected power-law overlay with the given parameters.
// The same parameters and RNG stream always produce the same graph.
func PowerLaw(p PLODParams, rng *stats.RNG) (*AdjGraph, error) {
	if p.N <= 0 {
		return nil, fmt.Errorf("topology: PowerLaw N = %d, want > 0", p.N)
	}
	if p.N == 1 {
		return NewAdjGraph(1, nil)
	}
	if p.AvgDeg < 1 {
		return nil, fmt.Errorf("topology: PowerLaw AvgDeg = %v, want >= 1", p.AvgDeg)
	}
	if p.AvgDeg > float64(p.N-1) {
		return nil, fmt.Errorf("topology: PowerLaw AvgDeg = %v exceeds N-1 = %d", p.AvgDeg, p.N-1)
	}
	alpha := p.Alpha
	if alpha == 0 {
		alpha = defaultPLODAlpha
	}
	if alpha < 0 {
		return nil, fmt.Errorf("topology: PowerLaw Alpha = %v, want >= 0", alpha)
	}

	credits := plodCredits(p.N, p.AvgDeg, alpha, rng)

	// Configuration-model pairing: lay out one stub per credit, shuffle, and
	// connect consecutive stubs, skipping self-loops and duplicates.
	var stubs []int32
	for v, c := range credits {
		for i := 0; i < c; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	type edgeKey struct{ u, v int32 }
	mk := func(u, v int32) edgeKey {
		if u > v {
			u, v = v, u
		}
		return edgeKey{u, v}
	}
	seen := make(map[edgeKey]bool, len(stubs)/2)
	edges := make([][2]int, 0, len(stubs)/2)
	deg := make([]int, p.N)
	addEdge := func(u, v int32) bool {
		if u == v {
			return false
		}
		k := mk(u, v)
		if seen[k] {
			return false
		}
		seen[k] = true
		edges = append(edges, [2]int{int(u), int(v)})
		deg[u]++
		deg[v]++
		return true
	}
	for i := 0; i+1 < len(stubs); i += 2 {
		addEdge(stubs[i], stubs[i+1])
	}

	// Top-up: the pairing drops self-loop and duplicate stubs, which skews
	// the realized mean below target. Add random edges until the edge budget
	// is met, bounded by a retry budget so degenerate inputs terminate.
	wantEdges := int(math.Round(p.AvgDeg * float64(p.N) / 2))
	maxEdges := p.N * (p.N - 1) / 2
	if wantEdges > maxEdges {
		wantEdges = maxEdges
	}
	for attempts := 0; len(edges) < wantEdges && attempts < 30*wantEdges; attempts++ {
		u := int32(rng.Intn(p.N))
		v := int32(rng.Intn(p.N))
		addEdge(u, v)
	}

	// Connectivity repair: attach every secondary component to the largest
	// one with a single edge.
	repairConnectivity(p.N, edges, deg, func(u, v int) bool {
		return addEdge(int32(u), int32(v))
	})

	return NewAdjGraph(p.N, edges)
}

// plodCredits draws per-node degree credits c_v = round(β·x^-α), x uniform on
// [1, n], with β calibrated by bisection so the clamped credit mean matches
// the target average outdegree.
func plodCredits(n int, avgDeg, alpha float64, rng *stats.RNG) []int {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Pow(float64(1+rng.Intn(n)), -alpha)
	}
	clampMean := func(beta float64) float64 {
		var sum float64
		for _, x := range xs {
			c := math.Round(beta * x)
			if c < 1 {
				c = 1
			}
			if c > float64(n-1) {
				c = float64(n - 1)
			}
			sum += c
		}
		return sum / float64(n)
	}
	lo, hi := 0.0, 1.0
	for clampMean(hi) < avgDeg && hi < 1e12 {
		hi *= 2
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if clampMean(mid) < avgDeg {
			lo = mid
		} else {
			hi = mid
		}
	}
	beta := (lo + hi) / 2
	credits := make([]int, n)
	for i, x := range xs {
		c := int(math.Round(beta * x))
		if c < 1 {
			c = 1
		}
		if c > n-1 {
			c = n - 1
		}
		credits[i] = c
	}
	return credits
}

// repairConnectivity links all components to the largest one. addEdge must
// return false if the edge already exists.
func repairConnectivity(n int, edges [][2]int, deg []int, addEdge func(u, v int) bool) {
	comp := components(n, edges)
	if len(comp) <= 1 {
		return
	}
	// Find the largest component.
	largest := 0
	for i, c := range comp {
		if len(c) > len(comp[largest]) {
			largest = i
		}
	}
	anchor := comp[largest][0]
	for i, c := range comp {
		if i == largest {
			continue
		}
		// Attach via the component's lowest-degree node to disturb the
		// degree distribution as little as possible.
		best := c[0]
		for _, v := range c {
			if deg[v] < deg[best] {
				best = v
			}
		}
		addEdge(best, anchor)
	}
}

// components returns the connected components of the edge list over n nodes
// as slices of node ids, each sorted ascending by construction.
func components(n int, edges [][2]int) [][]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ru, rv := find(e[0]), find(e[1])
		if ru != rv {
			parent[ru] = rv
		}
	}
	groups := make(map[int][]int)
	for v := 0; v < n; v++ {
		r := find(v)
		groups[r] = append(groups[r], v)
	}
	out := make([][]int, 0, len(groups))
	for v := 0; v < n; v++ {
		if find(v) == v {
			out = append(out, groups[v])
		}
	}
	return out
}

// Components returns the connected components of g (explicit graphs only).
func Components(g *AdjGraph) [][]int {
	edges := make([][2]int, 0, g.NumEdges())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v, nil) {
			if int(w) > v {
				edges = append(edges, [2]int{v, int(w)})
			}
		}
	}
	return components(g.N(), edges)
}

// IsConnected reports whether g has a single connected component.
func IsConnected(g *AdjGraph) bool {
	if g.N() <= 1 {
		return true
	}
	return len(Components(g)) == 1
}

// DegreeFrequency returns a map from outdegree to the number of nodes with
// that outdegree, used to verify the power-law shape.
func DegreeFrequency(g Graph) map[int]int {
	freq := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		freq[g.Degree(v)]++
	}
	return freq
}
