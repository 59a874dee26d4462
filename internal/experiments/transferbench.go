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

// TransferBenchParams shape the content-transfer validation: a fleet of live
// super-peers serves one deterministic file under a per-source rate cap, a
// multi-source chunked download runs against the sources a real overlay query
// surfaced, and the measured throughput, duration and transfer-class wire
// bytes are laid beside the analytical prediction. A second download is the
// failover drill: one source is killed mid-transfer and the download must
// complete on the survivors with the hash intact.
type TransferBenchParams struct {
	// Clusters is the number of super-peers (ring overlay, one partner
	// each); every one serves the shared catalog, so it is also the source
	// count the query should surface (default 3).
	Clusters int
	// FileSize pins the served file's size in bytes (default 1 MiB).
	FileSize int64
	// ChunkSize is the serving chunk width (default 16 KiB).
	ChunkSize int
	// SourceRate is each super-peer's content-byte service cap in bytes/sec
	// — the knob that makes throughput predictable (default 256 KiB/s).
	SourceRate float64
	// Window is the downloader's per-source outstanding-chunk window
	// (default 4).
	Window int
	// QueryWindow is the wall-clock window the source-discovery search
	// collects hits for (default 300ms).
	QueryWindow time.Duration
	// KillFraction is when the failover drill kills one source, as a
	// fraction of the predicted clean-download duration (default 0.4).
	KillFraction float64
	// Seed drives the downloader's backoff jitter and the harness.
	Seed uint64
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

func (p *TransferBenchParams) setDefaults() {
	if p.Clusters <= 0 {
		p.Clusters = 3
	}
	if p.FileSize <= 0 {
		p.FileSize = 1 << 20
	}
	if p.ChunkSize <= 0 {
		p.ChunkSize = 16 << 10
	}
	if p.SourceRate <= 0 {
		p.SourceRate = 256 << 10
	}
	if p.Window <= 0 {
		p.Window = 4
	}
	if p.QueryWindow <= 0 {
		p.QueryWindow = 300 * time.Millisecond
	}
	if p.KillFraction <= 0 || p.KillFraction >= 1 {
		p.KillFraction = 0.4
	}
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
}

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
	// WireScraped is the transfer-class wire-byte total (both directions)
	// scraped from every super-peer's telemetry across the clean download.
	WireScraped float64
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

// WireRelErr compares scraped transfer-class wire bytes with the predicted
// protocol total.
func (r *TransferBenchResult) WireRelErr() float64 {
	return relErr(r.WireScraped, float64(r.Pred.WireBytes))
}

// scrapeTransferBytes sums the transfer-class wire bytes (both directions)
// over every live super-peer's telemetry endpoint.
func scrapeTransferBytes(f *fleet) (float64, error) {
	scraped, err := f.scrape()
	if err != nil {
		return 0, err
	}
	var total float64
	for _, b := range scraped {
		total += b.Sum(metrics.DirIn, metrics.ClassTransfer)
		total += b.Sum(metrics.DirOut, metrics.ClassTransfer)
	}
	return total, nil
}

// discoverSources queries the settled overlay from one node and distills
// the hits into sources: one per serving super-peer.
func discoverSources(p *TransferBenchParams, live *network.Live) ([]transfer.Source, error) {
	results, err := live.Node(0, 0).Search(transferBenchTitle, p.QueryWindow)
	if err != nil {
		return nil, err
	}
	sources := p2p.TransferSources(results, transferBenchTitle)
	if len(sources) < p.Clusters {
		return nil, fmt.Errorf("transferbench: query surfaced %d sources, want %d",
			len(sources), p.Clusters)
	}
	return sources, nil
}

func (p *TransferBenchParams) fetchOpts() transfer.Options {
	return transfer.Options{
		Window:       p.Window,
		Seed:         p.Seed,
		DialTimeout:  2 * time.Second,
		ChunkTimeout: 5 * time.Second,
		Backoff:      link.Backoff{Initial: 50 * time.Millisecond, Max: 500 * time.Millisecond},
	}
}

// RunTransferBenchResult executes the transfer validation and failover drill
// and returns both the measurements and the printable report.
func RunTransferBenchResult(p TransferBenchParams) (*TransferBenchResult, error) {
	p.setDefaults()

	// One shared immutable store backs every super-peer: identical catalog,
	// identical bytes — the precondition for multi-source downloads.
	store := transfer.NewStore(transfer.StoreOptions{
		ChunkSize:   p.ChunkSize,
		MinFileSize: p.FileSize,
		MaxFileSize: p.FileSize,
	})
	f := store.Add(transferBenchTitle)

	cell, err := launchFleet(network.LiveConfig{
		Clusters:  p.Clusters,
		Partners:  1,
		Seed:      p.Seed,
		Telemetry: true,
		Node: p2p.Options{
			Content:           store,
			TransferRate:      p.SourceRate,
			HeartbeatInterval: -1,
			DrainTimeout:      200 * time.Millisecond,
		},
	}, 0, p.Logf)
	if err != nil {
		return nil, err
	}
	defer cell.close()
	live := cell.live
	if err := cell.settle(0); err != nil {
		return nil, err
	}

	sources, err := discoverSources(&p, live)
	if err != nil {
		return nil, err
	}

	pred, err := analysis.PredictTransfer(analysis.TransferWorkload{
		FileSize:      f.Size,
		ChunkSize:     p.ChunkSize,
		Sources:       len(sources),
		SourceRateBps: p.SourceRate,
	})
	if err != nil {
		return nil, err
	}

	wantHash := transfer.ContentHash(f.Title, f.Size)

	// Clean download, bracketed by telemetry scrapes so the wire-byte column
	// covers exactly this transfer.
	wireBase, err := scrapeTransferBytes(cell)
	if err != nil {
		return nil, err
	}
	clean, err := transfer.Fetch(sources, p.fetchOpts())
	if err != nil {
		return nil, fmt.Errorf("transferbench: clean download: %w", err)
	}
	if clean.Hash != wantHash {
		return nil, fmt.Errorf("transferbench: clean download hash mismatch")
	}
	wireEnd, err := scrapeTransferBytes(cell)
	if err != nil {
		return nil, err
	}

	// Failover drill: same download, one source killed mid-transfer.
	killCluster := p.Clusters - 1
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
		res, err := transfer.Fetch(sources, p.fetchOpts())
		done <- outcome{res, err}
	}()
	killDelay := time.Duration(p.KillFraction * pred.DurationSec * float64(time.Second))
	var killAt time.Duration
	select {
	case out := <-done:
		// Finished before the planned kill (tiny files at quick scale): the
		// drill degrades to a second clean download, reported as such.
		if out.err != nil {
			return nil, fmt.Errorf("transferbench: drill download: %w", out.err)
		}
		return nil, fmt.Errorf("transferbench: drill finished in %v, before the %v kill point — raise FileSize or KillFraction",
			out.res.Elapsed, killDelay)
	case <-time.After(killDelay):
		if err := live.KillSuperPeer(killCluster, 0); err != nil {
			return nil, err
		}
		killAt = time.Since(start)
		p.Logf("transferbench: killed %s at %v", killAddr, killAt)
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
		WireScraped: wireEnd - wireBase,
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
				fmt.Sprintf("%.0f", res.WireScraped),
				fmt.Sprintf("%.1f%%", 100*res.WireRelErr())},
			{"protocol efficiency", fmt.Sprintf("%.4f", pred.Efficiency),
				fmt.Sprintf("%.4f", float64(clean.Size)/math.Max(res.WireScraped, 1)), ""},
			{"chunks", fmt.Sprintf("%d", pred.Chunks), fmt.Sprintf("%d", clean.Chunks), ""},
			{"sources", fmt.Sprintf("%d", p.Clusters), fmt.Sprintf("%d", res.Sources), ""},
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
				p.Clusters, f.Size, p.ChunkSize, p.SourceRate),
			"sources discovered through a real overlay query (QueryHit responder addresses), not configured",
			"model: window pipelining keeps every source service-bound, so throughput = sources × per-source rate cap",
			"wire column scraped from each super-peer's /metrics endpoint (spnet_message_bytes_total{type=\"transfer\"})",
			fmt.Sprintf("failover drill killed one source at %.0f%% of the predicted duration; download completed on the survivors",
				100*p.KillFraction),
		},
		Tables: []Table{cleanTable, drillTable},
	}
	return res, nil
}

// runTransferBenchDefault adapts the generic experiment Params: Scale shrinks
// the served file (floored so the failover drill still has time to kill a
// source mid-transfer).
func runTransferBenchDefault(p Params) (*Report, error) {
	tp := TransferBenchParams{Seed: p.Seed}
	if p.Scale > 0 && p.Scale < 1 {
		tp.FileSize = int64(math.Max(256<<10, float64(int64(1<<20))*p.Scale))
	}
	res, err := RunTransferBenchResult(tp)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}
