package analysis

import (
	"testing"

	"spnet/internal/network"
)

// TestBreakdownSumsToAggregate: the component attribution must reconstruct
// the aggregate load exactly (bandwidth) and with a non-negative
// packet-multiplex residual (processing).
func TestBreakdownSumsToAggregate(t *testing.T) {
	for _, cfg := range []network.Config{
		{GraphType: network.PowerLaw, GraphSize: 500, ClusterSize: 10, AvgOutdegree: 3.1, TTL: 7},
		{GraphType: network.Strong, GraphSize: 400, ClusterSize: 20, TTL: 1},
		{GraphType: network.Strong, GraphSize: 300, ClusterSize: 10, TTL: 3},
		{GraphType: network.PowerLaw, GraphSize: 400, ClusterSize: 8, AvgOutdegree: 3.1, TTL: 5, KRedundancy: 2},
		{GraphType: network.PowerLaw, GraphSize: 300, ClusterSize: 9, KRedundancy: 3, AvgOutdegree: 3.1, TTL: 4},
	} {
		res := Evaluate(generate(t, cfg, nil, 30))
		agg := res.AggregateLoad()
		bd := res.LoadBreakdown()
		total := bd.Total()
		if relDiff(total.TotalBps(), agg.TotalBps()) > 1e-9 {
			t.Errorf("%v: component bandwidth %v != aggregate %v", cfg, total.TotalBps(), agg.TotalBps())
		}
		if relDiff(total.ProcHz, agg.ProcHz) > 1e-9 {
			t.Errorf("%v: component processing %v != aggregate %v", cfg, total.ProcHz, agg.ProcHz)
		}
		if bd.PacketMultiplex.ProcHz < 0 {
			t.Errorf("%v: negative packet-multiplex residual", cfg)
		}
		for name, l := range map[string]Load{
			"query":    bd.QueryTransfer,
			"process":  bd.QueryProcessing,
			"response": bd.ResponseTransfer,
			"joins":    bd.Joins,
			"updates":  bd.Updates,
		} {
			if l.InBps < 0 || l.OutBps < 0 || l.ProcHz < 0 {
				t.Errorf("%v: negative %s component: %+v", cfg, name, l)
			}
		}
	}
}

// TestBreakdownResponseDominatesBandwidth confirms the paper's Figure 5
// explanation: result forwarding is the dominant bandwidth consumer in a
// query-heavy configuration.
func TestBreakdownResponseDominatesBandwidth(t *testing.T) {
	cfg := network.Config{GraphType: network.Strong, GraphSize: 1000, ClusterSize: 50, TTL: 1}
	res := Evaluate(generate(t, cfg, nil, 31))
	bd := res.LoadBreakdown()
	if bd.ResponseTransfer.TotalBps() <= bd.QueryTransfer.TotalBps() {
		t.Errorf("response transfer %v not above query transfer %v",
			bd.ResponseTransfer.TotalBps(), bd.QueryTransfer.TotalBps())
	}
	if bd.ResponseTransfer.TotalBps() <= bd.Joins.TotalBps() {
		t.Errorf("response transfer %v not above joins %v",
			bd.ResponseTransfer.TotalBps(), bd.Joins.TotalBps())
	}
}

// TestBreakdownJoinsDominateAtLowQueryRate confirms the Appendix C regime:
// with the tenfold-lower query rate, joins rival or beat response traffic.
func TestBreakdownJoinsDominateAtLowQueryRate(t *testing.T) {
	cfg := network.Config{GraphType: network.Strong, GraphSize: 1000, ClusterSize: 50, TTL: 1}
	prof := profileWithRates(true)
	res := Evaluate(generate(t, cfg, prof, 32))
	bd := res.LoadBreakdown()
	if bd.Joins.TotalBps() <= bd.QueryTransfer.TotalBps() {
		t.Errorf("at low query rate joins %v should beat query transfer %v",
			bd.Joins.TotalBps(), bd.QueryTransfer.TotalBps())
	}
}

// TestBreakdownPacketMultiplexGrowsWithConnections: the clique at tiny
// cluster sizes is dominated by the Appendix A overhead (the Figure 6 story).
func TestBreakdownPacketMultiplexAtSmallClusters(t *testing.T) {
	small := network.Config{GraphType: network.Strong, GraphSize: 1000, ClusterSize: 1, TTL: 1}
	big := network.Config{GraphType: network.Strong, GraphSize: 1000, ClusterSize: 50, TTL: 1}
	bdSmall := Evaluate(generate(t, small, nil, 33)).LoadBreakdown()
	bdBig := Evaluate(generate(t, big, nil, 33)).LoadBreakdown()
	fracSmall := bdSmall.PacketMultiplex.ProcHz / bdSmall.Total().ProcHz
	fracBig := bdBig.PacketMultiplex.ProcHz / bdBig.Total().ProcHz
	if fracSmall <= fracBig {
		t.Errorf("packet-multiplex share at cluster 1 (%.2f) not above cluster 50 (%.2f)",
			fracSmall, fracBig)
	}
	if fracSmall < 0.2 {
		t.Errorf("packet-multiplex share at cluster 1 = %.2f; expected dominant", fracSmall)
	}
}
