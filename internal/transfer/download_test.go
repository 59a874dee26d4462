package transfer_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/metrics"
	"spnet/internal/p2p"
	"spnet/internal/transfer"
	"spnet/internal/trust"
)

// testStore builds a small shared catalog: one 512 KiB file in 16 KiB chunks,
// sizes pinned so test durations are predictable.
func testStore() *transfer.Store {
	s := transfer.NewStore(transfer.StoreOptions{
		ChunkSize: 16 << 10, MinFileSize: 512 << 10, MaxFileSize: 512 << 10,
	})
	s.Add("deep sea documentary")
	return s
}

// startNode launches a super-peer serving the store at the given content rate.
func startNode(t *testing.T, store *transfer.Store, rate float64, mis *p2p.MisbehaveOptions) *p2p.Node {
	t.Helper()
	n := p2p.NewNode(p2p.Options{
		Content: store, TransferRate: rate, Misbehave: mis,
		HeartbeatInterval: -1,
	})
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// waitPeered polls until both nodes have registered the overlay link:
// ConnectPeer returns after the handshake, but each side's reader goroutine
// registers the link asynchronously, and a search flooded before that sees
// no neighbors.
func waitPeered(t *testing.T, nodes ...*p2p.Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ready := true
		for _, n := range nodes {
			if n.Stats().Peers == 0 {
				ready = false
			}
		}
		if ready {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("timed out waiting for overlay links to register")
}

func fastOpts() transfer.Options {
	return transfer.Options{
		Window: 4, Seed: 1,
		DialTimeout: time.Second, ChunkTimeout: 2 * time.Second,
		Backoff: link.Backoff{Initial: 20 * time.Millisecond, Max: 200 * time.Millisecond},
	}
}

// TestFetchViaQueryHits drives the whole plane end to end: query the overlay,
// distill the hits into sources, download, verify against ground truth.
func TestFetchViaQueryHits(t *testing.T) {
	t.Parallel() // mostly paced or windowed waits: overlap them
	store := testStore()
	a := startNode(t, store, 0, nil)
	b := startNode(t, store, 0, nil)
	if err := b.ConnectPeer(a.Addr()); err != nil {
		t.Fatalf("peering: %v", err)
	}
	waitPeered(t, a, b)
	f := store.Files()[0]

	results, err := b.Search(f.Title, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	sources := p2p.TransferSources(results, f.Title)
	if len(sources) != 2 {
		t.Fatalf("got %d sources from query hits, want 2 (a=%s b=%s results: %+v)",
			len(sources), a.Addr(), b.Addr(), results)
	}

	res, err := transfer.Fetch(sources, fastOpts())
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if res.Size != f.Size {
		t.Errorf("downloaded %d bytes, want %d", res.Size, f.Size)
	}
	if want := transfer.ContentHash(f.Title, f.Size); res.Hash != want {
		t.Errorf("hash mismatch: got %x, want %x", res.Hash, want)
	}
}

// TestKillSourceMidDownload is the failover drill: a 2-source download loses
// one source mid-transfer and must complete on the survivor with the hash
// intact, recovering within the retry budget.
func TestKillSourceMidDownload(t *testing.T) {
	t.Parallel() // mostly paced or windowed waits: overlap them
	store := testStore()
	f := store.Files()[0]
	// 256 KiB/s each: the 512 KiB file takes ~1s from two sources, so a kill
	// at 300ms lands mid-transfer.
	a := startNode(t, store, 256<<10, nil)
	b := startNode(t, store, 256<<10, nil)
	sources := []transfer.Source{
		{Addr: a.Addr(), FileIndex: f.Index},
		{Addr: b.Addr(), FileIndex: f.Index},
	}

	type outcome struct {
		res *transfer.Result
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := transfer.Fetch(sources, fastOpts())
		done <- outcome{res, err}
	}()

	time.Sleep(300 * time.Millisecond)
	b.Close()
	killAt := time.Since(start)

	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("download did not finish after source kill")
	}
	if out.err != nil {
		t.Fatalf("fetch after kill: %v", out.err)
	}
	res := out.res
	if want := transfer.ContentHash(f.Title, f.Size); res.Hash != want {
		t.Fatalf("hash mismatch after failover")
	}
	recovery := res.Elapsed - killAt
	t.Logf("killed source at %v; download finished %v later (total %v, %d retried chunks)",
		killAt.Round(time.Millisecond), recovery.Round(time.Millisecond),
		res.Elapsed.Round(time.Millisecond), res.Retried)
	if recovery <= 0 {
		t.Errorf("download finished before the kill; test raced (elapsed %v, kill %v)", res.Elapsed, killAt)
	}
	if res.Sources[1].Chunks == 0 {
		t.Error("killed source delivered nothing before dying; kill landed too early")
	}
	if res.Sources[0].Chunks+res.Sources[1].Chunks != res.Chunks {
		t.Errorf("source chunk counts %d+%d don't cover %d chunks",
			res.Sources[0].Chunks, res.Sources[1].Chunks, res.Chunks)
	}
}

// TestFetchDoesNotWaitOutRedialBackoff: a source killed mid-download goes
// into a 3 s redial backoff, and the download's end cuts that wait short, so
// neither Fetch's return nor its Elapsed waits it out.
func TestFetchDoesNotWaitOutRedialBackoff(t *testing.T) {
	t.Parallel() // mostly paced or windowed waits: overlap them
	store := testStore()
	f := store.Files()[0]
	// 512 KiB/s each: the 512 KiB file takes about 0.5 s from two sources.
	a := startNode(t, store, 512<<10, nil)
	b := startNode(t, store, 512<<10, nil)
	opts := fastOpts()
	opts.Backoff = link.Backoff{Initial: 3 * time.Second, Max: 3 * time.Second}
	type outcome struct {
		res *transfer.Result
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := transfer.Fetch([]transfer.Source{
			{Addr: a.Addr(), FileIndex: f.Index},
			{Addr: b.Addr(), FileIndex: f.Index},
		}, opts)
		done <- outcome{res, err}
	}()
	time.Sleep(200 * time.Millisecond)
	b.Close()
	killAt := time.Since(start)

	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("download did not finish after source kill")
	}
	if out.err != nil {
		t.Fatalf("fetch after kill: %v", out.err)
	}
	if out.res.Sources[1].Redials == 0 {
		t.Fatal("the killed source never went into its redial backoff; kill landed too late")
	}
	if el := out.res.Elapsed; el >= killAt+2*time.Second {
		t.Errorf("Elapsed %v with the kill at %v: the 3 s redial backoff was waited out", el, killAt)
	}
}

// TestForgedChunkAdversary plants a chunk-forging source beside an honest
// one: every forged chunk must be rejected on its manifest hash, debited
// against the forger's trust score, and re-fetched from the honest source.
func TestForgedChunkAdversary(t *testing.T) {
	store := testStore()
	f := store.Files()[0]
	// The honest source is paced (about 0.1 s for the file) so it cannot
	// finish before the forger's link is up.
	honest := startNode(t, store, 4<<20, nil)
	forger := startNode(t, store, 0, &p2p.MisbehaveOptions{ForgeChunk: 1, Seed: 3})
	sources := []transfer.Source{
		{Addr: honest.Addr(), FileIndex: f.Index},
		{Addr: forger.Addr(), FileIndex: f.Index},
	}

	book := trust.NewBook()
	opts := fastOpts()
	opts.Trust = book
	res, err := transfer.Fetch(sources, opts)
	if err != nil {
		t.Fatalf("fetch with forging source: %v", err)
	}
	if want := transfer.ContentHash(f.Title, f.Size); res.Hash != want {
		t.Fatalf("forged chunks poisoned the download")
	}
	if res.Forged == 0 {
		t.Fatal("no forged chunks detected; adversary never fired")
	}
	if res.Sources[1].Chunks != 0 {
		t.Errorf("forger contributed %d verified chunks, want 0", res.Sources[1].Chunks)
	}
	if res.Sources[0].Chunks != res.Chunks {
		t.Errorf("honest source served %d/%d chunks; forged chunks not re-fetched",
			res.Sources[0].Chunks, res.Chunks)
	}
	if hs, fs := book.Score(0), book.Score(1); fs >= hs {
		t.Errorf("trust debit missing: forger score %.3f >= honest %.3f", fs, hs)
	}
}

// TestResumeFromBitmap kills the only source mid-download, then resumes the
// returned Progress against a fresh source: previously verified chunks must
// not be fetched again.
func TestResumeFromBitmap(t *testing.T) {
	t.Parallel() // mostly paced or windowed waits: overlap them
	store := testStore()
	f := store.Files()[0]
	dying := startNode(t, store, 128<<10, nil) // ~4s alone: plenty of time to kill
	sources := []transfer.Source{{Addr: dying.Addr(), FileIndex: f.Index}}

	type outcome struct {
		res *transfer.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := transfer.Fetch(sources, fastOpts())
		done <- outcome{res, err}
	}()
	time.Sleep(500 * time.Millisecond)
	dying.Close()

	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fetch did not fail after its only source died")
	}
	if out.err == nil {
		t.Fatal("fetch succeeded with its only source killed mid-transfer")
	}
	if out.res == nil || out.res.Progress == nil {
		t.Fatal("failed fetch returned no resumable progress")
	}
	prog := out.res.Progress
	already := out.res.Chunks - prog.Remaining()
	if already == 0 {
		t.Fatal("no chunks verified before the kill; test raced")
	}

	fresh := startNode(t, store, 0, nil)
	res, err := transfer.Resume([]transfer.Source{{Addr: fresh.Addr(), FileIndex: f.Index}}, prog, fastOpts())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if want := transfer.ContentHash(f.Title, f.Size); res.Hash != want {
		t.Fatalf("hash mismatch after resume")
	}
	if got := res.Sources[0].Chunks; got != res.Chunks-already {
		t.Errorf("resume fetched %d chunks, want only the %d missing ones",
			got, res.Chunks-already)
	}
}

// TestFetchConnBytesCountHello checks the downloader's socket metering: raw
// conn bytes are exactly the metered frames, less the Ethernet/TCP/IP
// framing their wire sizes fold in, plus one hello exchange per link (the
// manifest link and the one streaming link of a single source).
func TestFetchConnBytesCountHello(t *testing.T) {
	store := testStore()
	f := store.Files()[0]
	n := startNode(t, store, 0, nil)
	opts := fastOpts()
	opts.Metrics = metrics.NewNodeMetrics()
	res, err := transfer.Fetch([]transfer.Source{{Addr: n.Addr(), FileIndex: f.Index}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Sources[0].Redials; r != 0 {
		t.Fatalf("source redialed %d times; the link count below assumes none", r)
	}
	const links = 2
	nm := opts.Metrics
	for _, tc := range []struct {
		dir   metrics.Dir
		hello string
	}{{metrics.DirOut, link.Transfer}, {metrics.DirIn, link.OK}} {
		frames := nm.Load.Bytes(metrics.ClassTransfer, tc.dir) -
			nm.Load.Messages(metrics.ClassTransfer, tc.dir)*gnutella.FrameOverhead
		want := frames + links*int64(len(tc.hello)+1)
		if got := nm.ConnBytes[tc.dir].Value(); got != want {
			t.Errorf("conn bytes %v = %d, want %d (frames %d + %d hellos)", tc.dir, got, want, frames, links)
		}
	}
}

// TestResumeStalledPrefix resumes a complete download with one chunk taken
// out and its bytes zeroed: the first chunk, so the whole-file digest waits
// at the file's start until the last fetch, and the short last chunk of a
// file that is not a whole number of chunks, so it waits at the very end.
// Either way the hash must cover the refetched bytes.
func TestResumeStalledPrefix(t *testing.T) {
	store := transfer.NewStore(transfer.StoreOptions{
		ChunkSize: 16 << 10, MinFileSize: 300_000, MaxFileSize: 300_000,
	})
	f := store.Add("stalled prefix documentary")
	if f.Size%int64(store.ChunkSize()) == 0 {
		t.Fatalf("file size %d is a whole number of chunks", f.Size)
	}
	want := transfer.ContentHash(f.Title, f.Size)
	sources := []transfer.Source{{Addr: startNode(t, store, 0, nil).Addr(), FileIndex: f.Index}}
	full, err := transfer.Fetch(sources, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		chunk int
	}{{"first", 0}, {"last", full.Chunks - 1}} {
		t.Run(tc.name, func(t *testing.T) {
			prog := &transfer.Progress{
				Manifest: full.Progress.Manifest,
				Data:     bytes.Clone(full.Data),
				Have:     slices.Clone(full.Progress.Have),
			}
			prog.Have[tc.chunk] = false
			lo := tc.chunk * full.ChunkSize
			clear(prog.Data[lo:min(lo+full.ChunkSize, len(prog.Data))])
			res, err := transfer.Resume(sources, prog, fastOpts())
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if res.Hash != want {
				t.Error("hash after resume differs from the content hash")
			}
			if got := res.Sources[0].Chunks; got != 1 {
				t.Errorf("resume fetched %d chunks, want the 1 missing", got)
			}
		})
	}
}
