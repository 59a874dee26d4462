package experiments

import (
	"fmt"

	"spnet/internal/cost"
	"spnet/internal/gnutella"
	"spnet/internal/network"
	"spnet/internal/workload"
)

// runTable1 echoes the configuration parameters and their defaults
// (paper Table 1).
func runTable1(Params) (*Report, error) {
	cfg := network.DefaultConfig()
	rates := workload.DefaultRates()
	return &Report{
		Tables: []Table{{
			Columns: []string{"Name", "Default", "Description"},
			Rows: [][]string{
				{"Graph Type", cfg.GraphType.String(), "strongly connected or power-law"},
				{"Graph Size", fmt.Sprint(cfg.GraphSize), "number of peers in the network"},
				{"Cluster Size", fmt.Sprint(cfg.ClusterSize), "nodes per cluster, incl. the super-peer"},
				{"Redundancy", fmt.Sprint(cfg.Redundant()), "whether super-peer 2-redundancy is used"},
				{"Avg. Outdegree", fmt.Sprint(cfg.AvgOutdegree), "average outdegree of a super-peer"},
				{"TTL", fmt.Sprint(cfg.TTL), "time-to-live of a query message"},
				{"Query Rate", fmtEng(rates.QueryRate), "expected queries per user per second"},
				{"Update Rate", fmtEng(rates.UpdateRate), "expected updates per user per second"},
			},
		}},
	}, nil
}

// runTable2 prints the atomic-action cost model (paper Table 2 / Figure 2).
func runTable2(Params) (*Report, error) {
	row := func(action, bw, proc string) []string { return []string{action, bw, proc} }
	return &Report{
		Notes: []string{
			"bandwidth in bytes on the wire (incl. Ethernet+TCP/IP framing); processing in units (1 unit = 7200 cycles)",
			"ProcessJoin and ProcessUpdate constants are reconstructed; see DESIGN.md substitution 4",
		},
		Tables: []Table{{
			Columns: []string{"Action", "Bandwidth Cost (Bytes)", "Processing Cost (Units)"},
			Rows: [][]string{
				row("Send Query", "82 + query length", fmt.Sprintf("%.2f + %.3f·len", cost.SendQueryBase, cost.SendQueryPerByte)),
				row("Recv Query", "82 + query length", fmt.Sprintf("%.2f + %.3f·len", cost.RecvQueryBase, cost.RecvQueryPerByte)),
				row("Process Query", "0", fmt.Sprintf("%.2f + %.1f·#results", cost.ProcessQueryBase, cost.ProcessQueryPerRe)),
				row("Send Response", "80 + 28·#addr + 76·#results", fmt.Sprintf("%.2f + %.2f·#addr + %.1f·#results", cost.SendRespBase, cost.SendRespPerAddr, cost.SendRespPerResult)),
				row("Recv Response", "80 + 28·#addr + 76·#results", fmt.Sprintf("%.2f + %.2f·#addr + %.1f·#results", cost.RecvRespBase, cost.RecvRespPerAddr, cost.RecvRespPerResult)),
				row("Send Join", "80 + 72·#files", fmt.Sprintf("%.2f + %.1f·#files", cost.SendJoinBase, cost.SendJoinPerFile)),
				row("Recv Join", "80 + 72·#files", fmt.Sprintf("%.2f + %.1f·#files", cost.RecvJoinBase, cost.RecvJoinPerFile)),
				row("Process Join", "0", fmt.Sprintf("%.2f + %.2f·#files", cost.ProcessJoinBase, cost.ProcessJoinPerFile)),
				row("Send Update", "152", fmt.Sprintf("%.1f", cost.SendUpdate)),
				row("Recv Update", "152", fmt.Sprintf("%.1f", cost.RecvUpdate)),
				row("Process Update", "0", fmt.Sprintf("%.1f", cost.ProcessUpdate)),
				row("Packet Multiplex", "0", fmt.Sprintf("%.2f·#open connections", cost.PacketMultiplexPerConn)),
			},
		}},
	}, nil
}

// runTable3 prints the general statistics (paper Table 3 / Figure 3).
func runTable3(Params) (*Report, error) {
	prof := workload.DefaultProfile()
	return &Report{
		Tables: []Table{{
			Columns: []string{"Description", "Value"},
			Rows: [][]string{
				{"Expected length of query string", fmt.Sprintf("%d B", prof.QueryLen)},
				{"Average size of result record", fmt.Sprintf("%d B", gnutella.ResultRecordLen)},
				{"Average size of metadata for a single file", fmt.Sprintf("%d B", gnutella.MetadataRecordLen)},
				{"Average number of queries per user per second", fmtEng(prof.Rates.QueryRate)},
				{"Mean files per peer (synthetic, after [22])", fmtEng(prof.Files.Mean())},
				{"Mean session lifespan (synthetic, after [22])", fmt.Sprintf("%s s", fmtEng(prof.Lifespans.Mean()))},
				{"Mean selection power p̄ (synthetic, after [25])", fmtEng(prof.Queries.MeanSelectionPower())},
			},
		}},
	}, nil
}
