// Redundancy: rule #2 ("super-peer redundancy is good") demonstrated. At
// first glance, 2-redundancy looks like it trades cost for reliability, and
// splitting each cluster into two half-size clusters looks cheaper. The
// paper shows the opposite: redundancy keeps the good aggregate load of the
// large cluster while giving each partner the individual load of a much
// smaller one — plus the reliability of two partners.
//
// This example compares three designs of the same 4000-peer strongly
// connected system: clusters of 100 (baseline), 2-redundant clusters of 100,
// and plain clusters of 50 ("twice the clusters at half the size").
package main

import (
	"fmt"
	"log"

	"spnet"
)

func main() {
	base := spnet.Config{
		GraphType:   spnet.Strong,
		GraphSize:   4000,
		ClusterSize: 100,
		TTL:         1,
	}
	redundant := base
	redundant.KRedundancy = 2
	half := base
	half.ClusterSize = 50

	type row struct {
		name string
		cfg  spnet.Config
	}
	rows := []row{
		{"cluster 100, plain", base},
		{"cluster 100, 2-redundant", redundant},
		{"cluster 50, plain", half},
	}

	const trials = 10
	fmt.Printf("%-28s %-16s %-16s %-16s %-14s\n",
		"design", "agg bw (bps)", "sp bw (bps)", "sp proc (Hz)", "client out (bps)")
	var baseline *spnet.TrialSummary
	for i, r := range rows {
		sum, err := spnet.RunTrials(r.cfg, nil, trials, 1)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseline = sum
		}
		fmt.Printf("%-28s %-16.4g %-16.4g %-16.4g %-14.4g\n",
			r.name,
			sum.Aggregate.InBps.Mean+sum.Aggregate.OutBps.Mean,
			sum.SuperPeer.InBps.Mean+sum.SuperPeer.OutBps.Mean,
			sum.SuperPeer.ProcHz.Mean,
			sum.Client.OutBps.Mean)
	}

	redSum, err := spnet.RunTrials(redundant, nil, trials, 1)
	if err != nil {
		log.Fatal(err)
	}
	aggDelta := (redSum.Aggregate.InBps.Mean + redSum.Aggregate.OutBps.Mean) /
		(baseline.Aggregate.InBps.Mean + baseline.Aggregate.OutBps.Mean)
	spDelta := (redSum.SuperPeer.InBps.Mean + redSum.SuperPeer.OutBps.Mean) /
		(baseline.SuperPeer.InBps.Mean + baseline.SuperPeer.OutBps.Mean)
	fmt.Printf("\nredundancy vs plain at the same cluster size:\n")
	fmt.Printf("  aggregate bandwidth: %+.1f%% (paper: +2.5%%)\n", 100*(aggDelta-1))
	fmt.Printf("  per-partner bandwidth: %+.1f%% (paper: -48%%)\n", 100*(spDelta-1))
	fmt.Println("\nthe redundant design matches the half-size clusters on individual load")
	fmt.Println("while keeping the aggregate efficiency of large clusters — and if one")
	fmt.Println("partner fails, the co-partner keeps the whole cluster connected.")
}
