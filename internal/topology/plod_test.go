package topology

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"spnet/internal/stats"
)

func TestPowerLawAverageDegree(t *testing.T) {
	for _, tc := range []struct {
		n      int
		avgDeg float64
	}{
		{1000, 3.1},
		{1000, 10},
		{500, 20},
		{2000, 3.1},
	} {
		g, err := PowerLaw(PLODParams{N: tc.n, AvgDeg: tc.avgDeg}, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("PowerLaw(%d, %v): %v", tc.n, tc.avgDeg, err)
		}
		got := g.AvgDegree()
		if math.Abs(got-tc.avgDeg)/tc.avgDeg > 0.08 {
			t.Errorf("n=%d target=%v: realized avg degree %v", tc.n, tc.avgDeg, got)
		}
	}
}

func TestPowerLawConnected(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		g, err := PowerLaw(PLODParams{N: 800, AvgDeg: 3.1}, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !IsConnected(g) {
			t.Errorf("seed %d: graph disconnected", seed)
		}
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	p := PLODParams{N: 300, AvgDeg: 5}
	a, err := PowerLaw(p, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PowerLaw(p, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for v := 0; v < a.N(); v++ {
		if a.Degree(v) != b.Degree(v) {
			t.Fatalf("node %d degree differs: %d vs %d", v, a.Degree(v), b.Degree(v))
		}
	}
}

func TestPowerLawHeavyTail(t *testing.T) {
	// A power-law topology must have a heavy tail: the maximum degree should
	// be far above the mean, and the degree distribution should be strongly
	// right-skewed (most nodes below the mean).
	g, err := PowerLaw(PLODParams{N: 2000, AvgDeg: 3.1}, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	degs := make([]int, g.N())
	maxDeg := 0
	below := 0
	for v := 0; v < g.N(); v++ {
		degs[v] = g.Degree(v)
		if degs[v] > maxDeg {
			maxDeg = degs[v]
		}
		if float64(degs[v]) < g.AvgDegree() {
			below++
		}
	}
	if float64(maxDeg) < 5*g.AvgDegree() {
		t.Errorf("max degree %d is not heavy-tailed vs mean %.2f", maxDeg, g.AvgDegree())
	}
	if frac := float64(below) / float64(g.N()); frac < 0.5 {
		t.Errorf("only %.0f%% of nodes below the mean; expected right skew", 100*frac)
	}
	sort.Ints(degs)
	if degs[0] < 1 {
		t.Errorf("minimum degree %d; connectivity repair should guarantee >= 1", degs[0])
	}
}

func TestPowerLawNoDuplicateEdgesProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 10
		g, err := PowerLaw(PLODParams{N: n, AvgDeg: 3.1}, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		// NewAdjGraph rejects duplicates, so reaching here means the edge
		// set was valid; verify symmetry and connectivity.
		return IsConnected(g)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPowerLawRejectsBadParams(t *testing.T) {
	cases := []PLODParams{
		{N: 0, AvgDeg: 3},
		{N: 10, AvgDeg: 0.5},
		{N: 10, AvgDeg: 20},
	}
	for _, p := range cases {
		if _, err := PowerLaw(p, stats.NewRNG(1)); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestPowerLawSingleNode(t *testing.T) {
	g, err := PowerLaw(PLODParams{N: 1, AvgDeg: 3.1}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1 || g.NumEdges() != 0 {
		t.Errorf("single-node graph: n=%d edges=%d", g.N(), g.NumEdges())
	}
}

func TestPowerLawSmallDense(t *testing.T) {
	// AvgDeg = N-1 forces a clique; the generator must terminate and produce
	// close to the full edge set.
	g, err := PowerLaw(PLODParams{N: 10, AvgDeg: 9}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 40 {
		t.Errorf("dense graph has %d edges, want ~45", g.NumEdges())
	}
}
