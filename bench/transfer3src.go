package main

import (
	"fmt"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/metrics"
	"spnet/internal/p2p"
	"spnet/internal/stats"
	"spnet/internal/transfer"
)

const transferSources = 3

// transferFleet is three nodes serving one store, and the file they serve.
type transferFleet struct {
	store   *transfer.Store
	nodes   []*p2p.Node
	sources []transfer.Source
	addMs   float64
}

func (tf *transferFleet) close() {
	for _, n := range tf.nodes {
		n.Close()
	}
}

// wireBytes is the transfer-class wire bytes the serving nodes have metered,
// both directions.
func (tf *transferFleet) wireBytes() float64 {
	t := int64(0)
	for _, n := range tf.nodes {
		l := n.Metrics().Load
		t += l.Bytes(metrics.ClassTransfer, metrics.DirIn) + l.Bytes(metrics.ClassTransfer, metrics.DirOut)
	}
	return float64(t)
}

func runTransfer(r *run) error {
	size := r.sz.transferBytes
	title := fmt.Sprintf("bench payload seed %d", r.seed)
	want := transfer.ContentHash(title, size) // ground truth, computed without any source
	r.params["file_bytes"] = size
	r.params["chunk_bytes"] = transfer.DefaultChunkSize
	r.params["sources"] = transferSources
	r.params["transfer_rate"] = "unlimited"
	r.params["warm_fetches"] = r.sz.warmFetches
	buf := r.tr.buffer()

	// fetch downloads the file once, from one goroutine, and checks it.
	var tf *transferFleet
	fetch := func(op int) (*transfer.Result, bool, error) {
		id := buf.begin("transfer.Fetch", 0, op)
		res, err := transfer.Fetch(tf.sources, transfer.Options{Seed: r.seed + uint64(op)})
		buf.end(id)
		if err != nil {
			return nil, false, err
		}
		return res, res.Hash == want && res.Size == size && res.Retried == 0 && res.Forged == 0, nil
	}

	teardown, err := r.setUp(func() (func(), error) {
		tf = &transferFleet{store: transfer.NewStore(transfer.StoreOptions{MinFileSize: size, MaxFileSize: size})}
		t0 := time.Now()
		file := tf.store.Add(title)
		tf.addMs = time.Since(t0).Seconds() * 1e3
		if file.Size != size {
			return nil, fmt.Errorf("store sized the file %d bytes, want %d", file.Size, size)
		}
		for i := 0; i < transferSources; i++ {
			n := p2p.NewNode(p2p.Options{Content: tf.store, HeartbeatInterval: -1})
			if err := n.Listen("127.0.0.1:0"); err != nil {
				tf.close()
				return nil, err
			}
			tf.nodes = append(tf.nodes, n)
			tf.sources = append(tf.sources, transfer.Source{Addr: n.Addr(), FileIndex: file.Index})
		}
		for i := 0; i < r.sz.warmFetches; i++ {
			if _, ok, err := fetch(0); err != nil || !ok {
				tf.close()
				return nil, fmt.Errorf("warm-up fetch: ok=%v err=%v", ok, err)
			}
		}
		return tf.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	var latMs []float64
	share := make([]float64, transferSources)
	wire0 := tf.wireBytes()
	w := timed(func() {
		deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
		for op := 1; time.Now().Before(deadline); op++ {
			r.attempted++
			res, ok, e := fetch(op)
			if e != nil || !ok {
				r.failed++
				continue
			}
			latMs = append(latMs, res.Elapsed.Seconds()*1e3)
			for i, s := range res.Sources {
				share[i] += float64(s.Bytes)
			}
		}
	})
	if len(latMs) == 0 {
		return fmt.Errorf("no fetch completed")
	}
	fetched := float64(len(latMs))
	r.recordOps(fetched, latMs, w)
	// Goodput is total bytes over total time: single fetches vary too much
	// for a per-fetch figure to mean anything.
	goodput := fetched * float64(size) / 1e6 / w.wall
	r.info("transfer_goodput_mbps", goodput, "MB/s")
	if !r.trace {
		return nil
	}

	L := r.layer
	L["transfer.goodput_mbps"] = goodput
	L["transfer.fetch_ms_p50"] = stats.Percentile(latMs, 50)
	L["transfer.store_add_ms.64m"] = tf.addMs
	wirePerFetch := (tf.wireBytes() - wire0) / float64(r.attempted)
	L["transfer.wire_efficiency"] = float64(size) / wirePerFetch
	pred, err := analysis.PredictTransfer(analysis.TransferWorkload{FileSize: size, ChunkSize: tf.store.ChunkSize(), Sources: transferSources})
	if err != nil {
		return err
	}
	L["transfer.predict_wire_err_frac"] = (wirePerFetch - float64(pred.WireBytes)) / float64(pred.WireBytes)
	L["transfer.source_share_min"] = min(share[0], share[1], share[2]) / (fetched * float64(size))
	chunk := uint32(0)
	chunks := uint32(size / int64(tf.store.ChunkSize()))
	r.probeSpan(buf, "transfer.chunk_read_us", func() float64 {
		return perOpNs(func() { tf.store.ChunkData(0, chunk%chunks); chunk++ }) / 1e3
	})
	r.probeSpan(buf, "transfer.manifest_build_mbps", func() float64 {
		t0 := time.Now()
		transfer.BuildManifest(title, size, tf.store.ChunkSize())
		return float64(size) / 1e6 / time.Since(t0).Seconds()
	})
	return codecLayer(r, buf)
}
