package experiments

import (
	"fmt"

	"spnet/internal/analysis"
	"spnet/internal/network"
	"spnet/internal/stats"
)

// runBreakdown is an ablation of the cost model: it attributes the aggregate
// load of representative configurations to protocol components, making the
// paper's causal explanations quantitative — rule #1's knee is the
// query-transfer overhead shrinking with cluster count, Figure 5's incoming
// bandwidth is response forwarding, Figure 6's small-cluster uptick is the
// Appendix A packet-multiplex overhead, and Appendix C's regime shift is
// joins overtaking queries.
func runBreakdown(p Params) (*Report, error) {
	size := p.scaled(10000, 500)
	configs := []struct {
		label string
		cfg   network.Config
	}{
		{"pure P2P (cluster 1, strong, TTL 1)", network.Config{
			GraphType: network.Strong, GraphSize: size, ClusterSize: 1, TTL: 1}},
		{"super-peers (cluster 50, strong, TTL 1)", network.Config{
			GraphType: network.Strong, GraphSize: size, ClusterSize: 50, TTL: 1}},
		{"Gnutella-like (cluster 10, power 3.1, TTL 7)", network.Config{
			GraphType: network.PowerLaw, GraphSize: size, ClusterSize: 10,
			AvgOutdegree: 3.1, TTL: 7}},
		{"2-redundant (cluster 50, strong, TTL 1)", network.Config{
			GraphType: network.Strong, GraphSize: size, ClusterSize: 50,
			KRedundancy: 2, TTL: 1}},
	}

	bwRows := make([][]string, 0, len(configs))
	procRows := make([][]string, 0, len(configs))
	bds, err := pmap(p, "configurations", len(configs), func(i int) (analysis.Breakdown, error) {
		inst, err := network.Generate(configs[i].cfg, nil, stats.NewRNG(p.Seed+uint64(i)))
		if err != nil {
			return analysis.Breakdown{}, err
		}
		return analysis.Evaluate(inst).LoadBreakdown(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range configs {
		bd := bds[i]
		total := bd.Total()

		pct := func(part, whole float64) string {
			if whole == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*part/whole)
		}
		bw := total.TotalBps()
		bwRows = append(bwRows, []string{
			c.label, fmtEng(bw),
			pct(bd.QueryTransfer.TotalBps(), bw),
			pct(bd.ResponseTransfer.TotalBps(), bw),
			pct(bd.Joins.TotalBps(), bw),
			pct(bd.Updates.TotalBps(), bw),
		})
		pr := total.ProcHz
		procRows = append(procRows, []string{
			c.label, fmtEng(pr),
			pct(bd.QueryTransfer.ProcHz, pr),
			pct(bd.QueryProcessing.ProcHz, pr),
			pct(bd.ResponseTransfer.ProcHz, pr),
			pct(bd.Joins.ProcHz, pr),
			pct(bd.Updates.ProcHz, pr),
			pct(bd.PacketMultiplex.ProcHz, pr),
		})
	}
	return &Report{
		Notes: []string{
			"ablation: aggregate load attributed to protocol components (single representative instance per configuration)",
			"expected shape: response transfer dominates bandwidth; query transfer shrinks with cluster size (rule #1's knee); packet multiplex dominates pure-P2P processing (Figure 6)",
		},
		Tables: []Table{
			{
				Title:   "Bandwidth (in+out) by component",
				Columns: []string{"Configuration", "Total (bps)", "Query xfer", "Response xfer", "Joins", "Updates"},
				Rows:    bwRows,
			},
			{
				Title:   "Processing by component",
				Columns: []string{"Configuration", "Total (Hz)", "Query xfer", "Query proc", "Response xfer", "Joins", "Updates", "Pkt multiplex"},
				Rows:    procRows,
			},
		},
	}, nil
}
