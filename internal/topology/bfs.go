package topology

import "math"

// BFSResult records a breadth-first traversal from a source node, the
// paper's model of query propagation (Section 4, Step 2): the query floods
// outward level by level, and responses travel back up the predecessor tree.
type BFSResult struct {
	Source int
	// Depth[v] is the hop distance from the source, or -1 if v was not
	// reached within the traversal's TTL.
	Depth []int32
	// Parent[v] is the BFS-tree predecessor of v (-1 for the source and for
	// unreached nodes). Responses from v travel v → Parent[v] → … → Source.
	Parent []int32
	// Order lists reached nodes in traversal order, source first.
	Order []int32
}

// Reach returns the number of nodes reached, including the source — the
// paper's "reach of the query".
func (r *BFSResult) Reach() int { return len(r.Order) }

// MaxDepth returns the depth of the deepest reached node.
func (r *BFSResult) MaxDepth() int {
	if len(r.Order) == 0 {
		return 0
	}
	return int(r.Depth[r.Order[len(r.Order)-1]])
}

// BFS performs a breadth-first traversal from source, visiting nodes at hop
// distance <= ttl. A ttl < 0 means unlimited. When maxNodes > 0 the
// traversal stops after reaching that many nodes (used for Figure 9's
// fixed-reach EPL measurements); 0 means unbounded.
func BFS(g Graph, source, ttl, maxNodes int) *BFSResult {
	n := g.N()
	orderCap := n
	if maxNodes > 0 {
		orderCap = min(n, maxNodes)
	}
	res := &BFSResult{
		Source: source,
		Depth:  make([]int32, n),
		Parent: make([]int32, n),
		Order:  make([]int32, 0, orderCap),
	}
	depth, parent := res.Depth, res.Parent
	for i := range depth {
		depth[i] = -1
		parent[i] = -1
	}
	depth[source] = 0
	res.Order = append(res.Order, int32(source))
	if (maxNodes > 0 && len(res.Order) >= maxNodes) || ttl == 0 {
		return res
	}
	// Order doubles as the queue: it is depth-monotone, so the nodes of one
	// level are exactly the stretch appended while the previous level was
	// expanded, and the first node at the TTL horizon ends the traversal.
	var nbs []int32
	for head := 0; head < len(res.Order); head++ {
		v := res.Order[head]
		d := depth[v]
		if ttl >= 0 && int(d) >= ttl {
			break
		}
		nbs = g.Neighbors(int(v), nbs) // one graph, local buffer: safe to hand back
		for _, w := range nbs {
			if depth[w] != -1 {
				continue
			}
			depth[w] = d + 1
			parent[w] = v
			res.Order = append(res.Order, w)
			if maxNodes > 0 && len(res.Order) >= maxNodes {
				return res
			}
		}
	}
	return res
}

// ReachForTTL returns the number of nodes a query from source reaches at the
// given TTL (including the source).
func ReachForTTL(g Graph, source, ttl int) int {
	if g.IsClique() {
		if ttl <= 0 {
			return 1
		}
		return g.N()
	}
	return BFS(g, source, ttl, 0).Reach()
}

// EPLForReach returns the expected path length when the desired reach is
// exactly `reach` nodes: the mean hop distance of the 2nd..reach-th node in
// BFS order from source (the source itself responds in 0 hops and sends no
// message, so it is excluded). This reproduces the measurements behind the
// paper's Figure 9. NaN is returned when fewer than 2 nodes are reachable.
func EPLForReach(g Graph, source, reach int) float64 {
	if reach > g.N() {
		reach = g.N()
	}
	if reach < 2 {
		return math.NaN()
	}
	if g.IsClique() {
		return 1
	}
	res := BFS(g, source, -1, reach)
	if len(res.Order) < 2 {
		return math.NaN()
	}
	var sum float64
	for _, v := range res.Order[1:] {
		sum += float64(res.Depth[v])
	}
	return sum / float64(len(res.Order)-1)
}

// MinTTLForFullReach returns the smallest TTL that lets a query from source
// reach every node in source's connected component (rule of thumb #4: once
// the reach covers every node, any larger TTL only adds redundant traffic).
func MinTTLForFullReach(g Graph, source int) int {
	if g.N() <= 1 {
		return 0
	}
	if g.IsClique() {
		return 1
	}
	return BFS(g, source, -1, 0).MaxDepth()
}

// EPLApprox is the closed-form approximation the paper gives in Appendix F:
// EPL ≈ log_d(reach) for average outdegree d. It is exact for a d-ary tree
// rooted at the source and a lower bound on graphs (cycles reduce the
// effective outdegree).
func EPLApprox(avgOutdegree float64, reach int) float64 {
	if avgOutdegree <= 1 || reach < 2 {
		return math.NaN()
	}
	return math.Log(float64(reach)) / math.Log(avgOutdegree)
}

// TreeReachBound returns the maximum number of nodes reachable within ttl
// hops when every node has outdegree d: 1 + d + d(d-1) + d(d-1)² + …
// (the source reaches d neighbors; each interior node forwards on d-1 edges).
// The paper's Section 5.2 uses the simpler d + d² bound for TTL 2; this
// refines it while preserving the design procedure's intent.
func TreeReachBound(d, ttl int) float64 {
	if ttl <= 0 || d <= 0 {
		return 1
	}
	total := 1.0
	level := float64(d)
	for h := 1; h <= ttl; h++ {
		total += level
		if total > 1e18 {
			return math.Inf(1)
		}
		level *= float64(d - 1)
	}
	return total
}
