// Command spnet-eval evaluates one super-peer network configuration with
// the paper's mean-value analysis and prints expected loads, result quality
// and traversal metrics with 95% confidence intervals.
//
// Example — the Table 1 default configuration:
//
//	spnet-eval
//
// Example — a 2-redundant network with a denser overlay:
//
//	spnet-eval -size 20000 -cluster 20 -redundancy -outdeg 10 -ttl 4 -trials 5
//
// Example — additionally price a 64 MiB multi-source download with the
// content-transfer extension (wire bytes, efficiency, throughput bound):
//
//	spnet-eval -transfer-size 67108864 -transfer-sources 3 -transfer-rate 262144
package main

import (
	"flag"
	"fmt"
	"os"

	"spnet"
)

func main() {
	def := spnet.DefaultConfig()
	var (
		graphType  = flag.String("graph", "power", `overlay type: "power" or "strong"`)
		size       = flag.Int("size", def.GraphSize, "number of peers")
		cluster    = flag.Int("cluster", def.ClusterSize, "cluster size (nodes incl. super-peer)")
		redundancy = flag.Bool("redundancy", false, "use 2-redundant virtual super-peers")
		outdeg     = flag.Float64("outdeg", def.AvgOutdegree, "average super-peer outdegree")
		ttl        = flag.Int("ttl", def.TTL, "query TTL")
		trials     = flag.Int("trials", 3, "independent instance trials")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "evaluation workers (0 = all cores, 1 = serial); output is identical at any setting")
		lowQuery   = flag.Bool("low-query-rate", false, "use the Appendix C tenfold-lower query rate")

		xferSize    = flag.Int64("transfer-size", 0, "also price a content download of this many bytes (0 = off)")
		xferChunk   = flag.Int("transfer-chunk", 64<<10, "chunk size for -transfer-size")
		xferSources = flag.Int("transfer-sources", 3, "parallel sources for -transfer-size")
		xferRate    = flag.Float64("transfer-rate", 256<<10, "per-source serving rate in bytes/sec for -transfer-size (0 = unpaced)")
	)
	flag.Parse()

	cfg := spnet.Config{
		GraphSize:    *size,
		ClusterSize:  *cluster,
		AvgOutdegree: *outdeg,
		TTL:          *ttl,
	}
	if *redundancy {
		cfg.KRedundancy = 2
	}
	switch *graphType {
	case "power":
		cfg.GraphType = spnet.PowerLaw
	case "strong":
		cfg.GraphType = spnet.Strong
	default:
		fmt.Fprintf(os.Stderr, "unknown -graph %q (want power or strong)\n", *graphType)
		os.Exit(2)
	}
	prof := spnet.DefaultProfile()
	if *lowQuery {
		prof.Rates.QueryRate /= 10
	}

	sum, err := spnet.RunTrialsWorkers(cfg, prof, *trials, *seed, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	fmt.Printf("configuration: %v\n", cfg)
	fmt.Printf("trials: %d\n\n", sum.Trials)
	fmt.Printf("%-26s %-22s %-22s %-22s\n", "", "incoming bw (bps)", "outgoing bw (bps)", "processing (Hz)")
	row := func(name string, ls [3]string) {
		fmt.Printf("%-26s %-22s %-22s %-22s\n", name, ls[0], ls[1], ls[2])
	}
	fmtS := func(s interface{ String() string }) string { return s.String() }
	row("aggregate (eq. 4)", [3]string{
		fmtS(sum.Aggregate.InBps), fmtS(sum.Aggregate.OutBps), fmtS(sum.Aggregate.ProcHz)})
	row("per super-peer (eq. 3)", [3]string{
		fmtS(sum.SuperPeer.InBps), fmtS(sum.SuperPeer.OutBps), fmtS(sum.SuperPeer.ProcHz)})
	row("per client (eq. 3)", [3]string{
		fmtS(sum.Client.InBps), fmtS(sum.Client.OutBps), fmtS(sum.Client.ProcHz)})
	fmt.Printf("\nresults per query (eq. 2): %v\n", sum.ResultsPerQuery)
	fmt.Printf("expected path length:      %v\n", sum.EPL)
	fmt.Printf("reach:                     %v clusters, %v peers\n",
		sum.ReachClusters, sum.ReachPeers)

	if *xferSize > 0 {
		p, err := spnet.PredictTransfer(spnet.TransferWorkload{
			FileSize:      *xferSize,
			ChunkSize:     *xferChunk,
			Sources:       *xferSources,
			SourceRateBps: *xferRate,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("\ncontent transfer (extension): %d bytes, %d-byte chunks, %d sources\n",
			*xferSize, *xferChunk, *xferSources)
		fmt.Printf("%-26s %-22s %-22s %-22s\n",
			"", "transfer bw (bps)", "wire bytes", "efficiency")
		if p.ThroughputBps > 0 {
			row("per download", [3]string{
				fmt.Sprintf("%.0f", p.ThroughputBps),
				fmt.Sprintf("%d", p.WireBytes),
				fmt.Sprintf("%.4f", p.Efficiency)})
			fmt.Printf("predicted duration:        %.2fs over %d chunks\n",
				p.DurationSec, p.Chunks)
		} else {
			row("per download (unpaced)", [3]string{
				"-",
				fmt.Sprintf("%d", p.WireBytes),
				fmt.Sprintf("%.4f", p.Efficiency)})
		}
	}
}
