package experiments

import "testing"

// TestRoutingCompareSmoke runs the flood-vs-routingindex slice of the
// three-way comparison on a shortened workload: the analytical model, the
// simulator and a live TCP star must all show routing indices cutting
// forwarded-query bandwidth by at least 40% while keeping at least 90%
// recall — the headline claim of the routing layer.
func TestRoutingCompareSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live network for several wall seconds")
	}
	leakCheck(t)
	s := routingScenario(42)
	s.SimDuration = 800
	s.Live.Duration = 120
	s.Logf = t.Logf
	res, err := runRoutingCompare(s, []string{"flood", "routingindex"})
	if err != nil {
		t.Fatal(err)
	}
	flood, ri := res.Row("flood"), res.Row("routingindex")
	if flood == nil || ri == nil {
		t.Fatalf("missing rows: %+v", res.Rows)
	}
	for name, cell := range map[string]RoutingCompareCell{
		"model": flood.Model, "sim": flood.Sim, "live": flood.Live,
	} {
		if cell.ForwardsPerQuery <= 0 {
			t.Fatalf("flood %s measured no forwards", name)
		}
		if cell.Recall < 0.99 {
			t.Errorf("flood %s recall %.2f, want ~1 (full reach at TTL 2)", name, cell.Recall)
		}
	}
	check := func(layer string, ri, fl RoutingCompareCell) {
		saved := bandwidthSaved(ri.ForwardsPerQuery, fl.ForwardsPerQuery)
		if saved < 0.40 {
			t.Errorf("%s: routingindex saved %.0f%% bandwidth, want >= 40%%", layer, 100*saved)
		}
		if ri.Recall < 0.90 {
			t.Errorf("%s: routingindex recall %.2f, want >= 0.90", layer, ri.Recall)
		}
		t.Logf("%s: routingindex %.2f fwd/query vs flood %.2f (%.0f%% saved), recall %.2f",
			layer, ri.ForwardsPerQuery, fl.ForwardsPerQuery, 100*saved, ri.Recall)
	}
	check("model", ri.Model, flood.Model)
	check("sim", ri.Sim, flood.Sim)
	check("live", ri.Live, flood.Live)
}
