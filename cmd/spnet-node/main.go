// Command spnet-node runs one live super-peer over TCP: it serves clients
// (metadata joins, keyword queries, updates) and connects to other
// super-peers as overlay neighbors, flooding queries with a TTL and
// relaying responses along the reverse path.
//
// Start a small overlay:
//
//	spnet-node -listen 127.0.0.1:7001
//	spnet-node -listen 127.0.0.1:7002 -peers 127.0.0.1:7001
//	spnet-node -listen 127.0.0.1:7003 -peers 127.0.0.1:7001,127.0.0.1:7002
//
// Ask a node to run one query itself and exit:
//
//	spnet-node -listen 127.0.0.1:7004 -peers 127.0.0.1:7001 \
//	           -query "free jazz" -wait 2s
//
// Serve downloadable content (the chunked transfer plane) — every node
// started with the same content flags serves identical bytes, so a fetcher
// can download from several of them in parallel:
//
//	spnet-node -listen 127.0.0.1:7001 -serve-content -content-files 16 \
//	           -transfer-rate 262144
//
// Expose load telemetry (Prometheus /metrics, expvar /debug/vars, pprof):
//
//	spnet-node -listen 127.0.0.1:7001 -telemetry 127.0.0.1:9001
//
// On SIGINT or SIGTERM the node shuts down gracefully: it deregisters from
// any attached fleet controllers (so partner promotion kicks in without
// waiting for a death timeout), drains in-flight queries for DrainTimeout,
// and flushes telemetry before exiting.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		log.Fatal(err)
	}
}

// run is main's testable body: it parses args, serves until a signal arrives
// on sigc (or on SIGINT/SIGTERM when sigc is nil), and shuts down in order —
// node first (deregister + drain), telemetry server last.
func run(args []string, out io.Writer, sigc <-chan os.Signal) error {
	fs := flag.NewFlagSet("spnet-node", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		listen  = fs.String("listen", "127.0.0.1:0", "address to serve clients and peers on")
		peers   = fs.String("peers", "", "comma-separated super-peer addresses to connect to")
		id      = fs.String("id", "", "node identity announced to fleet controllers (e.g. sp-0-0)")
		ttl     = fs.Int("ttl", 7, "TTL stamped on queries")
		maxCl   = fs.Int("max-clients", 100, "maximum clients (cluster size - 1)")
		maxPeer = fs.Int("max-peers", 30, "maximum overlay neighbors (outdegree)")
		telem   = fs.String("telemetry", "", "serve load telemetry on this address: /metrics (Prometheus), /debug/vars (expvar), /debug/pprof/")
		query   = fs.String("query", "", "run this keyword query from the node itself, print results, and exit")
		wait    = fs.Duration("wait", 2*time.Second, "how long to collect results for -query")
		routing = fs.String("routing", "flood", `query-routing strategy: "flood", "randomwalk[:k]", "routingindex" or "learned"`)
		rseed   = fs.Uint64("routing-seed", 1, "seed for randomized routing strategies")
		verbose = fs.Bool("v", false, "log protocol diagnostics")

		serveContent = fs.Bool("serve-content", false, "serve downloadable content: seed a deterministic store and answer chunk requests")
		contentFiles = fs.Int("content-files", 8, "with -serve-content: number of titles sampled into the store")
		contentSeed  = fs.Uint64("content-seed", 1, "with -serve-content: seed for title sampling (same seed + flags = same store on every node)")
		contentChunk = fs.Int("content-chunk", 0, "with -serve-content: chunk size in bytes (0 = default)")
		maxTransfers = fs.Int("max-transfers", 0, "with -serve-content: concurrent transfer links served (0 = default)")
		transferRate = fs.Float64("transfer-rate", 0, "with -serve-content: aggregate served content bytes/sec (0 = unpaced)")

		trustOn    = fs.Bool("trust", false, "reputation defenses: validate QueryHits, score neighbor links (spnet_peer_reputation), trust-weighted overlay admission")
		trustShare = fs.Float64("trust-share", 0.5, "with -trust: queue fraction reserved for overlay queries, scaled by link reputation")
		misDrop    = fs.Float64("mis-drop", 0, "misbehave (harness only): probability of silently dropping a query")
		misForge   = fs.Float64("mis-forge", 0, "misbehave (harness only): probability of forging a QueryHit for a relayed query")
		misBusy    = fs.Float64("mis-busylie", 0, "misbehave (harness only): probability of Busy-refusing a client with capacity to spare")
		misSeed    = fs.Uint64("mis-seed", 1, "seed for the misbehavior draw stream")

		dialTO    = fs.Duration("dial-timeout", 10*time.Second, "connection setup timeout: bounds each peer dial, and the hello exchange on accepted and dialed links")
		writeTO   = fs.Duration("write-timeout", 30*time.Second, "per-message write timeout")
		hbEvery   = fs.Duration("heartbeat", 5*time.Second, "overlay heartbeat interval (0 disables)")
		hbTimeout = fs.Duration("heartbeat-timeout", 0, "silence before a peer is declared dead (0 = 3×heartbeat)")
		drainTO   = fs.Duration("drain-timeout", 2*time.Second, "how long shutdown waits for in-flight queries to finish")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := spnet.NodeOptions{
		TTL: *ttl, MaxClients: *maxCl, MaxPeers: *maxPeer,
		DialTimeout: *dialTO, WriteTimeout: *writeTO,
		HeartbeatInterval: *hbEvery, HeartbeatTimeout: *hbTimeout,
		DrainTimeout: *drainTO,
	}
	if *hbEvery == 0 {
		opts.HeartbeatInterval = -1 // flag 0 means off; Options treats 0 as "default"
	}
	opts.Trust = *trustOn
	opts.TrustPeerShare = *trustShare
	if *misDrop > 0 || *misForge > 0 || *misBusy > 0 {
		opts.Misbehave = &spnet.MisbehaveOptions{
			Drop: *misDrop, Forge: *misForge, BusyLie: *misBusy, Seed: *misSeed,
		}
	}
	var store *spnet.TransferStore
	if *serveContent {
		store = spnet.NewTransferStore(spnet.TransferStoreOptions{ChunkSize: *contentChunk})
		store.AddSampled(spnet.DefaultLibrary(), *contentFiles, *contentSeed)
		opts.Content = store
		opts.MaxTransfers = *maxTransfers
		opts.TransferRate = *transferRate
	}
	strat, err := spnet.ParseRouting(*routing)
	if err != nil {
		return err
	}
	opts.Routing = strat
	opts.RoutingSeed = *rseed
	if *verbose {
		opts.Logf = log.Printf
	}
	node := spnet.NewNode(opts)
	if err := node.Listen(*listen); err != nil {
		return err
	}
	fmt.Fprintf(out, "super-peer listening on %s (TTL %d, ≤%d clients, ≤%d peers, routing %s)\n",
		node.Addr(), *ttl, *maxCl, *maxPeer, strat.Name())
	if store != nil {
		var total int64
		for _, f := range store.Files() {
			total += f.Size
		}
		rate := "unpaced"
		if *transferRate > 0 {
			rate = fmt.Sprintf("%.0f B/s", *transferRate)
		}
		fmt.Fprintf(out, "serving content: %d titles, %d bytes, chunk %d B, %s\n",
			len(store.Files()), total, store.ChunkSize(), rate)
	}

	var srv *http.Server
	if *telem != "" {
		lis, err := net.Listen("tcp", *telem)
		if err != nil {
			node.Close()
			return fmt.Errorf("telemetry listener: %w", err)
		}
		srv = &http.Server{Handler: spnet.TelemetryHandler(node.Metrics().Registry())}
		go func() {
			if err := srv.Serve(lis); err != http.ErrServerClosed {
				log.Printf("telemetry server: %v", err)
			}
		}()
		node.SetIdentity(*id, lis.Addr().String())
		fmt.Fprintf(out, "telemetry on http://%s/metrics\n", lis.Addr())
	} else {
		node.SetIdentity(*id, "")
	}

	shutdown := func() {
		// Order matters: closing the node deregisters from controllers
		// (RegisterBye) and drains in-flight queries up to DrainTimeout;
		// only then is the telemetry endpoint torn down, so the final
		// counters stay scrapeable through the drain.
		node.Close()
		if srv != nil {
			srv.Close()
		}
	}

	for _, addr := range strings.Split(*peers, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if err := node.ConnectPeer(addr); err != nil {
			shutdown()
			return fmt.Errorf("connecting to peer %s: %w", addr, err)
		}
		fmt.Fprintf(out, "connected to peer %s\n", addr)
	}

	if *query != "" {
		results, err := node.Search(*query, *wait)
		if err != nil {
			shutdown()
			return err
		}
		fmt.Fprintf(out, "%d results for %q:\n", len(results), *query)
		for _, r := range results {
			fmt.Fprintf(out, "  %-40s (file %d, owner %d.%d.%d.%d:%d, %d hops)\n",
				r.Title, r.FileIndex,
				r.OwnerIP[0], r.OwnerIP[1], r.OwnerIP[2], r.OwnerIP[3],
				r.OwnerPort, r.Hops)
		}
		shutdown()
		return nil
	}

	if sigc == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		sigc = sig
	}
	s := <-sigc
	fmt.Fprintf(out, "\n%v: draining and shutting down\n", s)
	shutdown()
	return nil
}
