package topology

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"spnet/internal/stats"
)

func TestBFSPathGraph(t *testing.T) {
	g := pathGraph(t, 6) // 0-1-2-3-4-5
	res := BFS(g, 0, -1, 0)
	if res.Reach() != 6 {
		t.Fatalf("Reach = %d, want 6", res.Reach())
	}
	for v := 0; v < 6; v++ {
		if int(res.Depth[v]) != v {
			t.Errorf("Depth[%d] = %d, want %d", v, res.Depth[v], v)
		}
	}
	for v := 1; v < 6; v++ {
		if int(res.Parent[v]) != v-1 {
			t.Errorf("Parent[%d] = %d, want %d", v, res.Parent[v], v-1)
		}
	}
	if res.Parent[0] != -1 {
		t.Errorf("Parent[source] = %d, want -1", res.Parent[0])
	}
	if res.MaxDepth() != 5 {
		t.Errorf("MaxDepth = %d, want 5", res.MaxDepth())
	}
}

func TestBFSTTLCutoff(t *testing.T) {
	g := pathGraph(t, 10)
	for ttl := 0; ttl < 10; ttl++ {
		res := BFS(g, 0, ttl, 0)
		if got, want := res.Reach(), ttl+1; got != want {
			t.Errorf("ttl %d: reach %d, want %d", ttl, got, want)
		}
	}
}

func TestBFSMaxNodesCutoff(t *testing.T) {
	g := pathGraph(t, 10)
	res := BFS(g, 0, -1, 4)
	if res.Reach() != 4 {
		t.Errorf("Reach = %d, want 4", res.Reach())
	}
}

// refBFS is the level-by-level traversal BFS replaced (a fresh `next` slice
// per level, neighbors through the callback), kept as the reference.
func refBFS(g Graph, source, ttl, maxNodes int) *BFSResult {
	n := g.N()
	res := &BFSResult{Source: source, Depth: make([]int32, n), Parent: make([]int32, n)}
	for i := range res.Depth {
		res.Depth[i] = -1
		res.Parent[i] = -1
	}
	res.Depth[source] = 0
	res.Order = append(res.Order, int32(source))
	if (maxNodes > 0 && len(res.Order) >= maxNodes) || ttl == 0 {
		return res
	}
	frontier := []int32{int32(source)}
	for depth := 1; len(frontier) > 0 && (ttl < 0 || depth <= ttl); depth++ {
		var next []int32
		for _, v := range frontier {
			stop := false
			refVisit(g, int(v), func(w int) bool {
				if res.Depth[w] == -1 {
					res.Depth[w] = int32(depth)
					res.Parent[w] = v
					res.Order = append(res.Order, int32(w))
					next = append(next, int32(w))
					if maxNodes > 0 && len(res.Order) >= maxNodes {
						stop = true
						return false
					}
				}
				return true
			})
			if stop {
				return res
			}
		}
		frontier = next
	}
	return res
}

// TestBFSMatchesLevelByLevel: Depth, Parent and Order are those of the
// level-by-level traversal at every TTL and every maxNodes early stop, on the
// fixtures above, random explicit graphs and cliques.
func TestBFSMatchesLevelByLevel(t *testing.T) {
	graphs := append(randomGraphs(t),
		pathGraph(t, 10),
		mustGraph(t, 4, [][2]int{{0, 1}}),
		mustGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 4}}))
	for gi, g := range graphs {
		n := g.N()
		for _, src := range []int{0, n / 2, n - 1} {
			for _, ttl := range []int{-1, 0, 1, 2, 3, 7} {
				for _, maxNodes := range []int{0, 1, 2, 4, n / 2, n, n + 3} {
					got, want := BFS(g, src, ttl, maxNodes), refBFS(g, src, ttl, maxNodes)
					if !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Depth, want.Depth) ||
						!slices.Equal(got.Parent, want.Parent) || got.Source != want.Source {
						t.Fatalf("graph %d src %d ttl %d maxNodes %d:\n got %+v\nwant %+v", gi, src, ttl, maxNodes, got, want)
					}
				}
			}
		}
	}
}

func TestBFSUnreachableMarked(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}}) // 2, 3 isolated
	res := BFS(g, 0, -1, 0)
	if res.Depth[2] != -1 || res.Parent[2] != -1 {
		t.Errorf("unreached node has Depth=%d Parent=%d", res.Depth[2], res.Parent[2])
	}
	if res.Reach() != 2 {
		t.Errorf("Reach = %d, want 2", res.Reach())
	}
}

func TestBFSOrderIsByDepth(t *testing.T) {
	g, err := PowerLaw(PLODParams{N: 300, AvgDeg: 4}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	res := BFS(g, 0, -1, 0)
	for i := 1; i < len(res.Order); i++ {
		if res.Depth[res.Order[i]] < res.Depth[res.Order[i-1]] {
			t.Fatal("BFS order not monotone in depth")
		}
	}
}

func TestBFSParentDepthInvariantProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, srcRaw uint8) bool {
		g, err := PowerLaw(PLODParams{N: 150, AvgDeg: 3.1}, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		src := int(srcRaw) % g.N()
		res := BFS(g, src, 5, 0)
		for _, v := range res.Order {
			if int(v) == src {
				continue
			}
			p := res.Parent[v]
			if p < 0 {
				return false
			}
			if res.Depth[v] != res.Depth[p]+1 {
				return false
			}
			if !g.HasEdge(int(v), int(p)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReachMonotoneInTTLProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		g, err := PowerLaw(PLODParams{N: 200, AvgDeg: 3.1}, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		prev := 0
		for ttl := 0; ttl <= 8; ttl++ {
			r := ReachForTTL(g, 0, ttl)
			if r < prev {
				return false
			}
			prev = r
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestReachForTTLClique(t *testing.T) {
	c := NewClique(100)
	if got := ReachForTTL(c, 0, 0); got != 1 {
		t.Errorf("ttl 0 reach = %d, want 1", got)
	}
	if got := ReachForTTL(c, 0, 1); got != 100 {
		t.Errorf("ttl 1 reach = %d, want 100", got)
	}
	if got := ReachForTTL(c, 0, 7); got != 100 {
		t.Errorf("ttl 7 reach = %d, want 100", got)
	}
}

func TestEPLForReachPath(t *testing.T) {
	g := pathGraph(t, 11)
	// Reach 11 from node 0: depths 1..10 over 10 nodes, mean 5.5.
	if got := EPLForReach(g, 0, 11); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("EPL = %v, want 5.5", got)
	}
	// Reach 3: depths 1, 2 -> mean 1.5.
	if got := EPLForReach(g, 0, 3); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("EPL = %v, want 1.5", got)
	}
}

func TestEPLForReachClique(t *testing.T) {
	if got := EPLForReach(NewClique(50), 0, 50); got != 1 {
		t.Errorf("clique EPL = %v, want 1", got)
	}
}

func TestEPLForReachDegenerate(t *testing.T) {
	g := pathGraph(t, 3)
	if !math.IsNaN(EPLForReach(g, 0, 1)) {
		t.Error("reach 1 should be NaN")
	}
}

func TestEPLDecreasesWithOutdegree(t *testing.T) {
	// Rule of thumb #3 backbone: EPL falls as average outdegree rises.
	epl := func(avgDeg float64) float64 {
		var sum float64
		const trials = 3
		for s := uint64(0); s < trials; s++ {
			g, err := PowerLaw(PLODParams{N: 1500, AvgDeg: avgDeg}, stats.NewRNG(10+s))
			if err != nil {
				t.Fatal(err)
			}
			sum += EPLForReach(g, 0, 500)
		}
		return sum / trials
	}
	lo, hi := epl(3.1), epl(10)
	if hi >= lo {
		t.Errorf("EPL(outdeg 10) = %v >= EPL(outdeg 3.1) = %v", hi, lo)
	}
}

func TestEPLApproxTracksMeasured(t *testing.T) {
	// Appendix F: log_d(reach) approximates (and lower-bounds) measured EPL.
	g, err := PowerLaw(PLODParams{N: 3000, AvgDeg: 10}, stats.NewRNG(20))
	if err != nil {
		t.Fatal(err)
	}
	measured := EPLForReach(g, 0, 500)
	approx := EPLApprox(10, 500)
	if measured < approx-0.3 {
		t.Errorf("measured EPL %v below approximation %v", measured, approx)
	}
	if measured > approx+2.5 {
		t.Errorf("measured EPL %v too far above approximation %v", measured, approx)
	}
}

func TestMinTTLForFullReach(t *testing.T) {
	g := pathGraph(t, 8)
	if got := MinTTLForFullReach(g, 0); got != 7 {
		t.Errorf("path MinTTL = %d, want 7", got)
	}
	if got := MinTTLForFullReach(g, 3); got != 4 {
		t.Errorf("mid-path MinTTL = %d, want 4", got)
	}
	if got := MinTTLForFullReach(NewClique(40), 0); got != 1 {
		t.Errorf("clique MinTTL = %d, want 1", got)
	}
	single := mustGraph(t, 1, nil)
	if got := MinTTLForFullReach(single, 0); got != 0 {
		t.Errorf("single-node MinTTL = %d, want 0", got)
	}
}

func TestTreeReachBound(t *testing.T) {
	if got := TreeReachBound(3, 0); got != 1 {
		t.Errorf("ttl 0: %v, want 1", got)
	}
	// d=3, ttl=2: 1 + 3 + 3*2 = 10.
	if got := TreeReachBound(3, 2); got != 10 {
		t.Errorf("d=3 ttl=2: %v, want 10", got)
	}
	// Section 5.2: 18 neighbors, TTL 2 bounds reach near 18²+18 ≈ 342.
	if got := TreeReachBound(18, 2); got < 300 || got > 360 {
		t.Errorf("d=18 ttl=2: %v, want ~325", got)
	}
	if !math.IsInf(TreeReachBound(10, 100), 1) {
		t.Error("huge tree should overflow to +Inf")
	}
}

func TestEPLApproxDegenerate(t *testing.T) {
	if !math.IsNaN(EPLApprox(1, 100)) {
		t.Error("d=1 should be NaN")
	}
	if !math.IsNaN(EPLApprox(5, 1)) {
		t.Error("reach 1 should be NaN")
	}
}
