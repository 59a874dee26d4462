package experiments

import (
	"fmt"
	"math"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/link"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/transfer"
)

// transferBenchTitle is the single catalog entry every super-peer serves; the
// downloader discovers sources by querying the overlay for it, so the file
// must be discoverable via the ordinary query plane before a byte moves.
const transferBenchTitle = "transferbench validation payload"

// The content-transfer validation: a fleet of live super-peers serves one
// deterministic file under a per-source rate cap, a multi-source chunked
// download runs against the sources a real overlay query surfaced, and the
// measured throughput, duration and transfer-class wire bytes are laid beside
// the analytical prediction. A second download is the failover drill: one
// source is killed mid-transfer and the download must complete on the
// survivors with the hash intact.
const (
	// transferSources is the number of super-peers (ring overlay, one
	// partner each); every one serves the shared catalog, so it is also the
	// source count the query should surface.
	transferSources = 3
	// transferChunkSize is the serving chunk width.
	transferChunkSize = 16 << 10
	// transferSourceRate is each super-peer's content-byte service cap in
	// bytes/sec — the knob that makes throughput predictable.
	transferSourceRate = 256 << 10
	// transferWindow is the downloader's per-source outstanding-chunk window.
	transferWindow = 4
	// transferQueryWindow is how long the source-discovery search collects
	// hits.
	transferQueryWindow = 300 * time.Millisecond
	// transferKillFraction is when the failover drill kills one source, as a
	// fraction of the predicted clean-download duration.
	transferKillFraction = 0.4
)

// TransferKill is the failover drill's outcome.
type TransferKill struct {
	// KilledAddr is the source killed mid-download.
	KilledAddr string
	// KillAt is how far into the download the kill landed.
	KillAt time.Duration
	// Recovery is how long after the kill the download completed.
	Recovery time.Duration
	// Result is the completed (hash-verified) drill download.
	Result *transfer.Result
}

// TransferBenchResult carries the measurements alongside the printable
// report, for tests to assert tolerances on.
type TransferBenchResult struct {
	// Pred is the analytical expectation for the clean download.
	Pred *analysis.TransferPrediction
	// Clean is the live clean-download measurement.
	Clean *transfer.Result
	// WireMetered is the transfer-class wire-byte total (both directions)
	// read off every super-peer's Table 2 meter across the clean download.
	WireMetered float64
	// Kill is the failover drill.
	Kill TransferKill
	// Sources is how many sources the overlay query surfaced.
	Sources int
	Report  *Report
}

// ThroughputRelErr is the headline number: live measured throughput vs the
// analytical prediction.
func (r *TransferBenchResult) ThroughputRelErr() float64 {
	return relErr(r.Clean.ThroughputBps, r.Pred.ThroughputBps)
}

// WireRelErr compares metered transfer-class wire bytes with the predicted
// protocol total.
func (r *TransferBenchResult) WireRelErr() float64 {
	return relErr(r.WireMetered, float64(r.Pred.WireBytes))
}

// transferBytes sums the transfer-class wire bytes (both directions) over
// every live super-peer's meter.
func transferBytes(f *fleet) float64 {
	var total float64
	for _, b := range f.classBytes() {
		total += b.Sum(metrics.DirIn, metrics.ClassTransfer)
		total += b.Sum(metrics.DirOut, metrics.ClassTransfer)
	}
	return total
}

// discoverSources queries the settled overlay from one node and distills
// the hits into sources: one per serving super-peer.
func discoverSources(live *network.Live) ([]transfer.Source, error) {
	results, err := live.Node(0, 0).Search(transferBenchTitle, transferQueryWindow)
	if err != nil {
		return nil, err
	}
	sources := p2p.TransferSources(results, transferBenchTitle)
	if len(sources) < transferSources {
		return nil, fmt.Errorf("transferbench: query surfaced %d sources, want %d",
			len(sources), transferSources)
	}
	return sources, nil
}

// fetchOpts are the downloader's options; seed drives its backoff jitter.
func fetchOpts(seed uint64) transfer.Options {
	return transfer.Options{
		Window:       transferWindow,
		Seed:         seed,
		DialTimeout:  2 * time.Second,
		ChunkTimeout: 5 * time.Second,
		Backoff:      link.Backoff{Initial: 50 * time.Millisecond, Max: 500 * time.Millisecond},
	}
}

// runTransferBench executes the transfer validation and failover drill on a
// fileSize-byte file and returns both the measurements and the printable
// report; seed drives the downloader's backoff jitter and the harness.
func runTransferBench(seed uint64, fileSize int64) (*TransferBenchResult, error) {
	// One shared immutable store backs every super-peer: identical catalog,
	// identical bytes — the precondition for multi-source downloads.
	store := transfer.NewStore(transfer.StoreOptions{
		ChunkSize:   transferChunkSize,
		MinFileSize: fileSize,
		MaxFileSize: fileSize,
	})
	f := store.Add(transferBenchTitle)

	cell, err := launchFleet(network.LiveConfig{
		Clusters: transferSources,
		Partners: 1,
		Seed:     seed,
		Node: p2p.Options{
			Content:           store,
			TransferRate:      transferSourceRate,
			HeartbeatInterval: -1,
			DrainTimeout:      200 * time.Millisecond,
		},
	}, 0, func(string, ...any) {})
	if err != nil {
		return nil, err
	}
	defer cell.close()
	live := cell.live
	if err := cell.settle(0); err != nil {
		return nil, err
	}

	sources, err := discoverSources(live)
	if err != nil {
		return nil, err
	}

	pred, err := analysis.PredictTransfer(analysis.TransferWorkload{
		FileSize:      f.Size,
		ChunkSize:     transferChunkSize,
		Sources:       len(sources),
		SourceRateBps: transferSourceRate,
	})
	if err != nil {
		return nil, err
	}

	wantHash := transfer.ContentHash(f.Title, f.Size)

	// Clean download, bracketed by meter reads so the wire-byte column
	// covers exactly this transfer.
	wireBase := transferBytes(cell)
	clean, err := transfer.Fetch(sources, fetchOpts(seed))
	if err != nil {
		return nil, fmt.Errorf("transferbench: clean download: %w", err)
	}
	if clean.Hash != wantHash {
		return nil, fmt.Errorf("transferbench: clean download hash mismatch")
	}
	wireEnd := transferBytes(cell)

	// Failover drill: same download, one source killed mid-transfer.
	killCluster := transferSources - 1
	killAddr := ""
	if n := live.Node(killCluster, 0); n != nil {
		killAddr = n.Addr()
	}
	type outcome struct {
		res *transfer.Result
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := transfer.Fetch(sources, fetchOpts(seed))
		done <- outcome{res, err}
	}()
	killDelay := time.Duration(transferKillFraction * pred.DurationSec * float64(time.Second))
	var killAt time.Duration
	select {
	case out := <-done:
		// Finished before the planned kill (tiny files at quick scale): the
		// drill degrades to a second clean download, reported as such.
		if out.err != nil {
			return nil, fmt.Errorf("transferbench: drill download: %w", out.err)
		}
		return nil, fmt.Errorf("transferbench: drill finished in %v, before the %v kill point — raise the file size",
			out.res.Elapsed, killDelay)
	case <-time.After(killDelay):
		if err := live.KillSuperPeer(killCluster, 0); err != nil {
			return nil, err
		}
		killAt = time.Since(start)
	}
	var drill outcome
	select {
	case drill = <-done:
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("transferbench: drill download hung after source kill")
	}
	if drill.err != nil {
		return nil, fmt.Errorf("transferbench: drill download after kill: %w", drill.err)
	}
	if drill.res.Hash != wantHash {
		return nil, fmt.Errorf("transferbench: drill download hash mismatch after failover")
	}

	res := &TransferBenchResult{
		Pred:        pred,
		Clean:       clean,
		WireMetered: wireEnd - wireBase,
		Sources:     len(sources),
		Kill: TransferKill{
			KilledAddr: killAddr,
			KillAt:     killAt,
			Recovery:   drill.res.Elapsed - killAt,
			Result:     drill.res,
		},
	}

	fmtBps := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	cleanTable := Table{
		Title: "clean multi-source download: analytical vs live",
		Columns: []string{
			"Quantity", "Model", "Live", "Rel err",
		},
		Rows: [][]string{
			{"throughput (bytes/s)", fmtBps(pred.ThroughputBps), fmtBps(clean.ThroughputBps),
				fmt.Sprintf("%.1f%%", 100*res.ThroughputRelErr())},
			{"duration (s)", fmt.Sprintf("%.3f", pred.DurationSec),
				fmt.Sprintf("%.3f", clean.Elapsed.Seconds()),
				fmt.Sprintf("%.1f%%", 100*relErr(clean.Elapsed.Seconds(), pred.DurationSec))},
			{"wire bytes (transfer class)", fmt.Sprintf("%d", pred.WireBytes),
				fmt.Sprintf("%.0f", res.WireMetered),
				fmt.Sprintf("%.1f%%", 100*res.WireRelErr())},
			{"protocol efficiency", fmt.Sprintf("%.4f", pred.Efficiency),
				fmt.Sprintf("%.4f", float64(clean.Size)/math.Max(res.WireMetered, 1)), ""},
			{"chunks", fmt.Sprintf("%d", pred.Chunks), fmt.Sprintf("%d", clean.Chunks), ""},
			{"sources", fmt.Sprintf("%d", transferSources), fmt.Sprintf("%d", res.Sources), ""},
		},
	}
	drillTable := Table{
		Title:   "failover drill: one source killed mid-download",
		Columns: []string{"Quantity", "Value"},
		Rows: [][]string{
			{"killed source", killAddr},
			{"kill at", res.Kill.KillAt.Round(time.Millisecond).String()},
			{"recovery (kill to completion)", res.Kill.Recovery.Round(time.Millisecond).String()},
			{"total elapsed", drill.res.Elapsed.Round(time.Millisecond).String()},
			{"chunks retried", fmt.Sprintf("%d", drill.res.Retried)},
			{"hash verified", "yes"},
		},
	}

	res.Report = &Report{
		ID:    "transferbench",
		Title: "Validation: analytical vs live multi-source transfer throughput",
		Notes: []string{
			fmt.Sprintf("%d super-peers each serving the %d-byte file in %d-byte chunks, rate-capped at %g bytes/s per source",
				transferSources, f.Size, transferChunkSize, float64(transferSourceRate)),
			"sources discovered through a real overlay query (QueryHit responder addresses), not configured",
			"model: window pipelining keeps every source service-bound, so throughput = sources × per-source rate cap",
			"wire column read off each super-peer's Table 2 meter (transfer class, both directions)",
			fmt.Sprintf("failover drill killed one source at %.0f%% of the predicted duration; download completed on the survivors",
				100*transferKillFraction),
		},
		Tables: []Table{cleanTable, drillTable},
	}
	return res, nil
}

// runTransferBenchDefault adapts the generic experiment Params: Scale shrinks
// the served file (floored so the failover drill still has time to kill a
// source mid-transfer).
func runTransferBenchDefault(p Params) (*Report, error) {
	fileSize := int64(1 << 20)
	if p.Scale > 0 && p.Scale < 1 {
		fileSize = int64(math.Max(256<<10, float64(int64(1<<20))*p.Scale))
	}
	res, err := runTransferBench(p.Seed, fileSize)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}
