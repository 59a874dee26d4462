package topology

import (
	"slices"
	"sort"
	"testing"

	"spnet/internal/stats"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *AdjGraph {
	t.Helper()
	g, err := NewAdjGraph(n, edges)
	if err != nil {
		t.Fatalf("NewAdjGraph: %v", err)
	}
	return g
}

// pathGraph returns 0-1-2-…-(n-1).
func pathGraph(t *testing.T, n int) *AdjGraph {
	t.Helper()
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return mustGraph(t, n, edges)
}

func TestAdjGraphBasics(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.N() != 4 {
		t.Errorf("N = %d, want 4", g.N())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if g.AvgDegree() != 2 {
		t.Errorf("AvgDegree = %v, want 2", g.AvgDegree())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(0,1) false")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) true, want false")
	}
	if g.IsClique() {
		t.Error("4-cycle reported as clique")
	}
}

func TestAdjGraphNeighborSymmetry(t *testing.T) {
	g := mustGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 4}})
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v, nil) {
			if !g.HasEdge(int(w), v) {
				t.Errorf("edge %d-%d not symmetric", v, w)
			}
		}
	}
}

func TestAdjGraphRejectsBadEdges(t *testing.T) {
	cases := map[string][][2]int{
		"self-loop":    {{1, 1}},
		"duplicate":    {{0, 1}, {1, 0}},
		"out-of-range": {{0, 7}},
		"negative":     {{-1, 0}},
	}
	for name, edges := range cases {
		if _, err := NewAdjGraph(3, edges); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestAdjGraphTriangleIsClique(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if !g.IsClique() {
		t.Error("triangle not detected as clique")
	}
}

func TestCliqueBasics(t *testing.T) {
	c := NewClique(5)
	if c.N() != 5 {
		t.Errorf("N = %d, want 5", c.N())
	}
	if !c.IsClique() {
		t.Error("IsClique false")
	}
	for v := 0; v < 5; v++ {
		if c.Degree(v) != 4 {
			t.Errorf("Degree(%d) = %d, want 4", v, c.Degree(v))
		}
		got := c.Neighbors(v, nil)
		if len(got) != 4 {
			t.Errorf("node %d visited %d neighbors, want 4", v, len(got))
		}
		for _, w := range got {
			if int(w) == v {
				t.Errorf("clique visited self at node %d", v)
			}
		}
	}
	if c.AvgDegree() != 4 {
		t.Errorf("AvgDegree = %v, want 4", c.AvgDegree())
	}
}

// refVisit is the callback iteration Graph.Neighbors replaced, kept as the
// reference order: an AdjGraph visits its stored neighbor run front to back,
// a Clique every other node ascending.
func refVisit(g Graph, v int, visit func(w int) bool) {
	switch g := g.(type) {
	case *AdjGraph:
		for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
			if !visit(int(g.adj[i])) {
				return
			}
		}
	case Clique:
		for w := 0; w < g.n; w++ {
			if w != v && !visit(w) {
				return
			}
		}
	}
}

// randomGraphs returns explicit graphs from random edge lists and from PLOD,
// plus cliques, for differential tests.
func randomGraphs(t *testing.T) []Graph {
	t.Helper()
	var gs []Graph
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(60)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.1 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		gs = append(gs, mustGraph(t, n, edges))
		pl, err := PowerLaw(PLODParams{N: 100 + 20*int(seed), AvgDeg: 3.1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, pl, NewClique(int(seed)))
	}
	return gs
}

// TestNeighborsMatchesCallbackOrder: the slice accessor yields exactly the
// sequence the callback iteration did, whether or not the caller's buffer
// has room, and an AdjGraph never writes into that buffer.
func TestNeighborsMatchesCallbackOrder(t *testing.T) {
	for gi, g := range randomGraphs(t) {
		buf := make([]int32, 0, g.N())
		for v := 0; v < g.N(); v++ {
			var want []int32
			refVisit(g, v, func(w int) bool { want = append(want, int32(w)); return true })
			for name, got := range map[string][]int32{
				"nil buf":   g.Neighbors(v, nil),
				"roomy buf": g.Neighbors(v, buf),
			} {
				if !slices.Equal(got, want) {
					t.Fatalf("graph %d node %d (%s): Neighbors = %v, want %v", gi, v, name, got, want)
				}
			}
			if len(want) != g.Degree(v) {
				t.Fatalf("graph %d node %d: %d neighbors, Degree %d", gi, v, len(want), g.Degree(v))
			}
		}
	}
	g := mustGraph(t, 3, [][2]int{{0, 1}, {0, 2}})
	buf := []int32{7, 7, 7}
	g.Neighbors(0, buf)
	if !slices.Equal(buf, []int32{7, 7, 7}) {
		t.Errorf("AdjGraph.Neighbors wrote into the caller's buffer: %v", buf)
	}
}

func TestComponentsAndConnectivity(t *testing.T) {
	g := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	comps := Components(g)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := make([]int, len(comps))
	for i, c := range comps {
		sizes[i] = len(c)
	}
	sort.Ints(sizes)
	if sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 3 {
		t.Errorf("component sizes = %v, want [1 2 3]", sizes)
	}
	if IsConnected(g) {
		t.Error("disconnected graph reported connected")
	}
	if !IsConnected(pathGraph(t, 5)) {
		t.Error("path graph reported disconnected")
	}
}

func TestDegreeFrequency(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	freq := DegreeFrequency(g)
	if freq[3] != 1 || freq[1] != 3 {
		t.Errorf("DegreeFrequency = %v, want map[1:3 3:1]", freq)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, 3, nil)
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.Degree(0) != 0 {
		t.Errorf("Degree = %d", g.Degree(0))
	}
	if g.IsClique() {
		t.Error("3-node empty graph is not a clique")
	}
	single := mustGraph(t, 1, nil)
	if !single.IsClique() {
		t.Error("single node should count as clique")
	}
}
