package sim

import (
	"testing"

	"spnet/internal/metrics"
	"spnet/internal/network"
)

// TestSimClassBreakdownConsistent checks the taxonomy attribution: for every
// cluster, the per-class byte breakdown must sum exactly to the total
// measured bandwidth, and a churning run must show all four analytical
// classes (query, response, join, update) with nothing in the live-only ones.
func TestSimClassBreakdownConsistent(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 200
	inst := generate(t, cfg, lowVarProfile(), 3)
	m, err := Run(inst, Options{Duration: 400, Seed: 11, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.SuperPeerClassBps) != len(m.SuperPeer) {
		t.Fatalf("class breakdown covers %d clusters, loads cover %d",
			len(m.SuperPeerClassBps), len(m.SuperPeer))
	}
	var agg metrics.ByClass
	for v, cls := range m.SuperPeerClassBps {
		for d, tot := range map[metrics.Dir]float64{
			metrics.DirIn:  m.SuperPeer[v].InBps,
			metrics.DirOut: m.SuperPeer[v].OutBps,
		} {
			sum := 0.0
			for c := 0; c < metrics.NumClasses; c++ {
				sum += cls.Get(metrics.Class(c), d)
			}
			if relDiff(sum, tot) > 1e-9 {
				t.Errorf("cluster %d dir %v: class sum %v != total %v", v, d, sum, tot)
			}
		}
		agg.Merge(cls)
	}
	for _, c := range []metrics.Class{
		metrics.ClassQuery, metrics.ClassResponse, metrics.ClassJoin, metrics.ClassUpdate,
	} {
		if agg.Sum(metrics.DirIn, c)+agg.Sum(metrics.DirOut, c) == 0 {
			t.Errorf("churning run attributed no bytes to class %v", c)
		}
	}
	for _, c := range []metrics.Class{metrics.ClassBusy, metrics.ClassPing, metrics.ClassOther} {
		if agg.Sum(metrics.DirIn, c)+agg.Sum(metrics.DirOut, c) != 0 {
			t.Errorf("simulator attributed bytes to live-only class %v", c)
		}
	}
}
