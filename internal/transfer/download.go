package transfer

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/metrics"
	"spnet/internal/stats"
	"spnet/internal/trust"
)

// Source is one place a file can be fetched from: a serving node's address
// and the file index it advertised in its QueryHit.
type Source struct {
	Addr      string
	FileIndex uint32
}

// Options shapes one download.
type Options struct {
	// Window is the per-source outstanding-chunk window: how many pipelined
	// ChunkRequests a source may have unanswered. Default 4.
	Window int

	DialTimeout time.Duration // each dial, and then its hello; default 5s
	// ChunkTimeout bounds how long a source may go without delivering any
	// outstanding chunk before its window is re-queued and the link redialed.
	// Default 15s.
	ChunkTimeout time.Duration
	// Backoff paces redials. Default 50ms..2s.
	Backoff link.Backoff
	// Seed drives the per-source jitter streams; equal seeds replay equal
	// backoff schedules.
	Seed uint64

	// Trust receives one observation per verified chunk (good) and per
	// hash-mismatched chunk (bad), keyed by source index in the sources
	// slice. When nil a private book is used; either way a source whose
	// posterior falls below 0.2 (dropScore) is abandoned and its chunks
	// re-fetched from the remaining sources.
	Trust *trust.Book

	// Metrics, when set, meters the client side: ClassTransfer frames on the
	// load meter, raw socket bytes (hello exchange included), verified
	// content bytes
	// (spnet_transfer_bytes_total{dir="in"}), retried/forged chunk counters
	// and the per-download throughput histogram.
	Metrics *metrics.NodeMetrics

	// Net is the transport sources are dialed on (zero: TCP; fault
	// injection hooks in here).
	Net link.Net
	// Logf receives protocol diagnostics.
	Logf func(format string, args ...any)
}

const (
	// chunkRetries bounds how many times one chunk may be re-queued (after
	// timeouts, nacks, forgeries or source death) before the download fails.
	chunkRetries = 8
	// maxRedials bounds reconnection attempts per source.
	maxRedials = 2
	// dropScore is the trust posterior below which a source is abandoned.
	dropScore = 0.2
	// writeTimeout bounds each ChunkRequest write.
	writeTimeout = 10 * time.Second
)

func (o *Options) setDefaults() {
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.ChunkTimeout <= 0 {
		o.ChunkTimeout = 15 * time.Second
	}
	o.Backoff = o.Backoff.Or(link.Backoff{Initial: 50 * time.Millisecond, Max: 2 * time.Second})
	o.Net = o.Net.Metered(o.Metrics)
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// SourceStats reports one source's contribution to a download.
type SourceStats struct {
	Addr    string
	Chunks  int   // verified chunks delivered
	Bytes   int64 // verified content bytes delivered
	Forged  int   // hash-mismatched chunks rejected
	Retried int   // chunks re-queued off this source (timeout/nack/death)
	Redials int
	Score   float64 // final trust posterior
	Err     error   // why the source retired early, if it did
}

// Progress is a download's resumable state: the manifest, the partially
// filled buffer and the chunk bitmap. A failed Fetch returns it inside its
// Result; passing it to Resume picks up where the failure left off, re-using
// every verified chunk.
type Progress struct {
	Manifest *Manifest
	Data     []byte
	Have     []bool
}

// Remaining counts chunks still missing.
func (p *Progress) Remaining() int {
	n := 0
	for _, h := range p.Have {
		if !h {
			n++
		}
	}
	return n
}

// Result reports one download.
type Result struct {
	Data          []byte
	Size          int64
	Hash          [sha256.Size]byte // SHA-256 of Data; only valid when complete
	Chunks        int
	ChunkSize     int
	Retried       int // chunk fetches re-issued
	Forged        int // chunks rejected on hash mismatch
	Elapsed       time.Duration
	ThroughputBps float64 // content bytes per second of wall time
	Sources       []SourceStats
	// Progress carries the resumable state; on a failed download pass it to
	// Resume to continue from the bitmap.
	Progress *Progress
}

// Fetch downloads one file from the given sources in parallel and verifies
// it chunk-by-chunk against the manifest. On failure the returned Result (if
// non-nil) carries Progress for Resume.
func Fetch(sources []Source, opts Options) (*Result, error) {
	return fetch(sources, nil, opts)
}

// Resume continues a failed download from its Progress — typically with a
// refreshed source list after the original sources died.
func Resume(sources []Source, prev *Progress, opts Options) (*Result, error) {
	if prev == nil || prev.Manifest == nil {
		return Fetch(sources, opts)
	}
	return fetch(sources, prev, opts)
}

var (
	errSourceDone      = errors.New("transfer: no claimable chunks left for source")
	errSourceUntrusted = errors.New("transfer: source fell below trust threshold")
)

// download is the shared state one Fetch's source workers cooperate on.
type download struct {
	opts    Options
	sources []Source
	// framing meters every frame on the client side (Options.Metrics).
	framing link.Framing

	mu       sync.Mutex
	man      *Manifest
	data     []byte
	have     []bool
	claimed  []int // -1 = free, else claiming source index
	retries  []int
	banned   []map[int]bool // chunk -> sources that may not serve it
	remain   int
	retried  int
	forged   int
	fatal    error
	book     *trust.Book
	srcStats []SourceStats

	// released holds one wake-up per source, posted whenever a claim is
	// given up, so a source with nothing to claim waits for one instead of
	// polling. done closes when the download ends: the last chunk is in, or
	// a chunk's retries ran out (fatal), which leaves it missing for good.
	released []chan struct{}
	done     chan struct{}
}

func fetch(sources []Source, prev *Progress, opts Options) (*Result, error) {
	opts.setDefaults()
	if len(sources) == 0 {
		return nil, errors.New("transfer: no sources")
	}
	start := time.Now()
	d := &download{
		opts:     opts,
		sources:  sources,
		framing:  link.Framing{Meter: link.LoadMeter(opts.Metrics)},
		book:     opts.Trust,
		srcStats: make([]SourceStats, len(sources)),
		released: make([]chan struct{}, len(sources)),
		done:     make(chan struct{}),
	}
	if d.book == nil {
		d.book = trust.NewBook()
	}
	for i, s := range sources {
		d.srcStats[i].Addr = s.Addr
		d.released[i] = make(chan struct{}, 1)
	}

	if prev != nil {
		d.install(prev.Manifest)
		copy(d.data, prev.Data)
		for i, h := range prev.Have {
			if i < len(d.have) && h {
				d.have[i] = true
				d.remain--
			}
		}
	} else if err := d.bootstrap(); err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	for i := range sources {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			d.runSource(idx)
		}(i)
	}
	wg.Wait()

	d.mu.Lock()
	defer d.mu.Unlock()
	res := &Result{
		Data:      d.data,
		Size:      d.man.FileSize,
		Chunks:    d.man.NumChunks(),
		ChunkSize: d.man.ChunkSize,
		Retried:   d.retried,
		Forged:    d.forged,
		Elapsed:   time.Since(start),
		Sources:   d.srcStats,
		Progress:  &Progress{Manifest: d.man, Data: d.data, Have: d.have},
	}
	for i := range res.Sources {
		res.Sources[i].Score = d.book.Score(i)
	}
	if res.Elapsed > 0 {
		done := d.man.FileSize
		if d.remain > 0 {
			done = 0
			for i, h := range d.have {
				if h {
					done += int64(d.man.ChunkLen(i))
				}
			}
		}
		res.ThroughputBps = float64(done) / res.Elapsed.Seconds()
	}
	if d.remain > 0 {
		err := d.fatal
		if err == nil {
			err = fmt.Errorf("transfer: %d/%d chunks missing after all sources retired", d.remain, d.man.NumChunks())
		}
		return res, err
	}
	res.Hash = sha256.Sum256(d.data)
	if nm := opts.Metrics; nm != nil {
		nm.TransferThroughput.Observe(res.ThroughputBps)
	}
	return res, nil
}

// install sizes the buffers from the manifest.
func (d *download) install(m *Manifest) {
	d.man = m
	n := m.NumChunks()
	d.data = make([]byte, m.FileSize)
	d.have = make([]bool, n)
	d.claimed = make([]int, n)
	for i := range d.claimed {
		d.claimed[i] = -1
	}
	d.retries = make([]int, n)
	d.banned = make([]map[int]bool, n)
	d.remain = n
}

// bootstrap fetches the manifest from the first source that yields one.
func (d *download) bootstrap() error {
	var lastErr error
	for i, src := range d.sources {
		m, err := d.fetchManifest(i, src)
		if err != nil {
			d.opts.Logf("transfer: manifest from %s: %v", src.Addr, err)
			lastErr = err
			continue
		}
		d.install(m)
		return nil
	}
	return fmt.Errorf("transfer: no source produced a manifest: %w", lastErr)
}

func (d *download) fetchManifest(idx int, src Source) (*Manifest, error) {
	conn, err := d.opts.Net.Open(src.Addr, link.Transfer, d.opts.DialTimeout, d.framing)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	req := &gnutella.ChunkRequest{FileIndex: src.FileIndex, Chunk: ManifestChunk}
	if err := conn.Send(req, writeTimeout); err != nil {
		return nil, err
	}
	msg, err := conn.Recv(time.Now().Add(d.opts.ChunkTimeout))
	if err != nil {
		return nil, err
	}
	switch m := msg.(type) {
	case *gnutella.ChunkData:
		if m.Chunk != ManifestChunk {
			return nil, fmt.Errorf("transfer: manifest reply carried chunk %d", m.Chunk)
		}
		man, err := DecodeManifest(m.Data)
		if err != nil {
			return nil, err
		}
		if man.FileSize != int64(m.FileSize) {
			return nil, fmt.Errorf("%w: frame size %d vs manifest %d", ErrBadManifest, m.FileSize, man.FileSize)
		}
		return man, nil
	case *gnutella.ChunkNack:
		return nil, fmt.Errorf("transfer: manifest nacked (code %d)", m.Code)
	}
	return nil, fmt.Errorf("transfer: unexpected %T for manifest", msg)
}

// runSource is one source's worker: dial (with seeded backoff), stream
// chunks under the outstanding window, redial on link failure, retire when
// the download finishes, the redial budget is spent, the source is banned
// from every remaining chunk, or its trust posterior collapses.
func (d *download) runSource(idx int) {
	src := d.sources[idx]
	rng := stats.NewRNG(d.opts.Seed).Split(uint64(idx))
	for redials := 0; ; redials++ {
		if redials > 0 {
			d.mu.Lock()
			d.srcStats[idx].Redials++
			d.mu.Unlock()
			if !link.Sleep(d.opts.Backoff.Delay(redials, rng), d.done) {
				return
			}
		}
		if d.finished() {
			return
		}
		conn, err := d.opts.Net.Open(src.Addr, link.Transfer, d.opts.DialTimeout, d.framing)
		if err != nil {
			err = fmt.Errorf("transfer: dialing: %w", err)
		} else {
			err = d.stream(idx, conn)
			conn.Close()
			switch {
			case err == nil || errors.Is(err, errSourceDone):
				d.retire(idx, nil)
				return
			case errors.Is(err, errSourceUntrusted):
				d.retire(idx, err)
				return
			}
			if d.finished() {
				return
			}
		}
		if redials >= maxRedials {
			d.retire(idx, err)
			return
		}
	}
}

// stream runs one connection's request/response loop. It returns nil when
// the download completed, errSourceDone when no remaining chunk may be
// served by this source, errSourceUntrusted on trust collapse, and the
// transport error otherwise (the caller decides whether to redial).
func (d *download) stream(idx int, conn *link.Conn) error {
	src := d.sources[idx]
	outstanding := make(map[uint32]bool)
	requeueAll := func() {
		for c := range outstanding {
			d.requeue(idx, c, false)
			delete(outstanding, c)
		}
	}
	for {
		for len(outstanding) < d.opts.Window {
			c, ok := d.claim(idx)
			if !ok {
				break
			}
			req := &gnutella.ChunkRequest{FileIndex: src.FileIndex, Chunk: c}
			if err := conn.Send(req, writeTimeout); err != nil {
				d.requeue(idx, c, false)
				requeueAll()
				return err
			}
			outstanding[c] = true
		}
		if len(outstanding) == 0 {
			if d.finished() {
				return nil
			}
			if d.exhausted(idx) {
				return errSourceDone
			}
			// Every missing chunk this source may serve is inflight on
			// another: wait for a claim to be given up, or for the end.
			select {
			case <-d.released[idx]:
			case <-d.done:
			}
			continue
		}
		msg, err := conn.Recv(time.Now().Add(d.opts.ChunkTimeout))
		if err != nil {
			requeueAll()
			return err
		}
		switch m := msg.(type) {
		case *gnutella.ChunkData:
			if !outstanding[m.Chunk] {
				continue // stale duplicate; not ours anymore
			}
			delete(outstanding, m.Chunk)
			if err := d.deliver(idx, m); err != nil {
				requeueAll()
				return err
			}
		case *gnutella.ChunkNack:
			if !outstanding[m.Chunk] {
				continue
			}
			delete(outstanding, m.Chunk)
			d.requeue(idx, m.Chunk, m.Code == gnutella.NackNotFound || m.Code == gnutella.NackBadRequest)
		default:
			d.opts.Logf("transfer: unexpected %T from %s", msg, src.Addr)
		}
	}
}

// claim reserves the lowest missing, unclaimed chunk this source may serve.
func (d *download) claim(idx int) (uint32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.remain == 0 || d.fatal != nil {
		return 0, false
	}
	for c := range d.have {
		if !d.have[c] && d.claimed[c] == -1 && !d.bannedLocked(c, idx) {
			d.claimed[c] = idx
			return uint32(c), true
		}
	}
	return 0, false
}

func (d *download) bannedLocked(chunk, idx int) bool {
	return d.banned[chunk] != nil && d.banned[chunk][idx]
}

// requeue releases a claimed chunk back to the pool and counts a retry; with
// ban set (nacked), idx may not serve the chunk again.
func (d *download) requeue(idx int, chunk uint32, ban bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := int(chunk)
	if c >= len(d.claimed) || d.claimed[c] != idx {
		return
	}
	d.claimed[c] = -1
	defer d.releasedLocked()
	if ban {
		d.banLocked(idx, c)
	}
	if d.have[c] {
		return
	}
	d.srcStats[idx].Retried++
	d.retryLocked(c)
}

// retryLocked counts one more failed fetch of chunk c. Blowing the per-chunk
// retry budget is fatal: it means no source can produce this chunk.
func (d *download) retryLocked(c int) {
	d.retries[c]++
	d.retried++
	if nm := d.opts.Metrics; nm != nil {
		nm.ChunksRetried.Inc()
	}
	if d.retries[c] > chunkRetries && d.fatal == nil {
		d.fatal = fmt.Errorf("transfer: chunk %d failed %d times", c, d.retries[c])
		close(d.done)
	}
}

// banLocked forbids idx from serving chunk c again (nacked or forged).
func (d *download) banLocked(idx, c int) {
	if d.banned[c] == nil {
		d.banned[c] = make(map[int]bool)
	}
	d.banned[c][idx] = true
}

// deliver verifies one arrived chunk against the manifest. A hash mismatch
// is a forged chunk: debit the source's trust, ban it from the chunk, and
// requeue; a collapsed posterior retires the source entirely.
func (d *download) deliver(idx int, m *gnutella.ChunkData) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := int(m.Chunk)
	if c >= len(d.have) || d.claimed[c] != idx {
		return nil
	}
	d.claimed[c] = -1
	defer d.releasedLocked()
	if d.have[c] {
		return nil
	}
	want := d.man.Hashes[c]
	if len(m.Data) != d.man.ChunkLen(c) || sha256.Sum256(m.Data) != want {
		d.forged++
		d.srcStats[idx].Forged++
		d.book.Observe(idx, false)
		if nm := d.opts.Metrics; nm != nil {
			nm.ChunksForged.Inc()
		}
		d.banLocked(idx, c)
		d.retryLocked(c)
		if d.book.Score(idx) < dropScore {
			return errSourceUntrusted
		}
		return nil
	}
	copy(d.data[int64(c)*int64(d.man.ChunkSize):], m.Data)
	d.have[c] = true
	if d.remain--; d.remain == 0 {
		close(d.done)
	}
	d.book.Observe(idx, true)
	d.srcStats[idx].Chunks++
	d.srcStats[idx].Bytes += int64(len(m.Data))
	if nm := d.opts.Metrics; nm != nil {
		nm.TransferBytes[metrics.DirIn].Add(int64(len(m.Data)))
	}
	return nil
}

// releasedLocked follows a claim given up: it wakes every source waiting for
// work.
func (d *download) releasedLocked() {
	for _, r := range d.released {
		select {
		case r <- struct{}{}:
		default: // a wake-up is already posted
		}
	}
}

// finished reports whether workers should stop: done or fatally stuck.
func (d *download) finished() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.remain == 0 || d.fatal != nil
}

// exhausted reports whether every missing chunk is banned for this source —
// nothing left it could ever contribute.
func (d *download) exhausted(idx int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for c := range d.have {
		if !d.have[c] && !d.bannedLocked(c, idx) {
			return false
		}
	}
	return true
}

// retire records why a source stopped.
func (d *download) retire(idx int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil && d.srcStats[idx].Err == nil {
		d.srcStats[idx].Err = err
	}
}
