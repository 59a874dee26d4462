package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/stats"
)

// The live workloads run a real super-peer fleet in this process, on the
// host's loopback interface (not a real link), and load it closed-loop: each
// probe sends its next Query only after the previous search's whole result
// set has arrived, as a Gnutella client does.

const (
	liveClusters  = 4
	livePartners  = 2
	liveNodes     = liveClusters * livePartners
	livePeerLinks = 5 // co-partner + 2 partners in each ring-adjacent cluster
	liveTTL       = 7
	liveProbes    = 2 // load-generating goroutines and client connections (= nproc here)
	fillerFiles   = 200
	needleTerms   = 64
	rejoinFiles   = 200
	searchTimeout = 2 * time.Second

	helloClient = "SPNET/1.0 CLIENT"
	helloOK     = "SPNET/1.0 OK"
)

// liveParams is what differs between the two live workloads.
type liveParams struct {
	plants      int // files per needle term per node
	rejoinEvery int // a probe re-Joins its collection before every n-th search; 0 = never
}

func runLiveFlood(r *run) error { return runLive(r, liveParams{plants: 1}) }
func runLiveHeavy(r *run) error { return runLive(r, liveParams{plants: 25, rejoinEvery: 4}) }

// fleet is the system under test plus the clients attached to it.
type fleet struct {
	p     liveParams
	live  *network.Live
	nodes []*p2p.Node
	// providers hold each node's collection. They must stay referenced for
	// the whole run: an unreferenced net.Conn is closed by its finalizer,
	// and the node then drops that client's index without a word.
	providers   []net.Conn
	probes      []*probe
	needles     []string
	vocab       []string
	collections [][]gnutella.MetadataRecord // per node
	expected    int                         // results per search
	launchMs    float64
}

func (f *fleet) close() {
	for _, c := range f.providers {
		c.Close()
	}
	for _, p := range f.probes {
		p.conn.Close()
	}
	f.live.Close()
}

func guid(rng *stats.RNG) gnutella.GUID {
	var g gnutella.GUID
	binary.LittleEndian.PutUint64(g[:8], rng.Uint64())
	binary.LittleEndian.PutUint64(g[8:], rng.Uint64())
	return g
}

func word(rng *stats.RNG, prefix string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return prefix + string(b)
}

func fillerTitle(rng *stats.RNG, vocab []string, words int) string {
	parts := make([]string, words)
	for i := range parts {
		parts[i] = vocab[rng.Intn(len(vocab))]
	}
	return strings.Join(parts, " ")
}

// dialClient opens a client link to a super-peer and completes the hello.
func dialClient(addr string) (net.Conn, *bufio.Reader, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(c, "%s\n", helloClient); err != nil {
		c.Close()
		return nil, nil, err
	}
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	if err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("client hello: %w", err)
	}
	if strings.TrimSpace(line) != helloOK {
		c.Close()
		return nil, nil, fmt.Errorf("client hello refused: %s", strings.TrimSpace(line))
	}
	c.SetDeadline(time.Time{})
	return c, br, nil
}

// waitFor polls cond until it holds or 10 s pass.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// launchFleet boots the ring, joins one provider per node and attaches the
// probes. Everything generated derives from the run's seed.
func launchFleet(r *run, p liveParams) (f *fleet, err error) {
	rng := stats.NewRNG(r.seed).Split(1)
	f = &fleet{p: p, expected: liveNodes * p.plants}
	f.vocab = make([]string, 500)
	for i := range f.vocab {
		f.vocab[i] = word(rng, "f", 5)
	}
	f.needles = make([]string, needleTerms)
	for i := range f.needles {
		f.needles[i] = fmt.Sprintf("%s%02d", word(rng, "n", 5), i)
	}

	f.live = network.NewLive(network.LiveConfig{
		Clusters: liveClusters, Partners: livePartners, Seed: r.seed,
		Node: p2p.Options{TTL: liveTTL, HeartbeatInterval: -1, DrainTimeout: 200 * time.Millisecond},
	})
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	t0 := time.Now()
	if err := f.live.Launch(); err != nil {
		return nil, err
	}
	for c := 0; c < liveClusters; c++ {
		for k := 0; k < livePartners; k++ {
			f.nodes = append(f.nodes, f.live.Node(c, k))
		}
	}
	if err := waitFor("overlay links", func() bool {
		for _, n := range f.nodes {
			if n.Stats().Peers != livePeerLinks {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}
	f.launchMs = time.Since(t0).Seconds() * 1e3

	for i, n := range f.nodes {
		files := make([]gnutella.MetadataRecord, 0, fillerFiles+needleTerms*p.plants)
		for j := 0; j < fillerFiles; j++ {
			files = append(files, gnutella.MetadataRecord{FileIndex: uint32(len(files)), FileSize: 1 << 20, Title: fillerTitle(rng, f.vocab, 4)})
		}
		for _, term := range f.needles {
			for j := 0; j < p.plants; j++ {
				files = append(files, gnutella.MetadataRecord{FileIndex: uint32(len(files)), FileSize: 1 << 20, Title: term + " " + fillerTitle(rng, f.vocab, 3)})
			}
		}
		f.collections = append(f.collections, files)
		c, _, err := dialClient(n.Addr())
		if err != nil {
			return nil, fmt.Errorf("provider %d: %w", i, err)
		}
		f.providers = append(f.providers, c)
		if err := gnutella.WriteMessage(c, &gnutella.Join{ID: guid(rng), Files: files}); err != nil {
			return nil, fmt.Errorf("provider %d join: %w", i, err)
		}
	}

	want := make([]int, liveNodes)
	for i := range want {
		want[i] = len(f.collections[i])
	}
	for i := 0; i < liveProbes; i++ {
		// Spread the probes over the ring: clusters 0 and 2, alternating partner.
		at := ((2*i)%liveClusters)*livePartners + i%livePartners
		pr := &probe{f: f, idx: i, rng: stats.NewRNG(r.seed).Split(uint64(100 + i)), joinID: guid(rng)}
		if p.rejoinEvery > 0 {
			for j := 0; j < rejoinFiles; j++ {
				pr.files = append(pr.files, gnutella.MetadataRecord{FileIndex: uint32(j), FileSize: 1 << 20, Title: fillerTitle(rng, f.vocab, 4)})
			}
		}
		if pr.conn, pr.br, err = dialClient(f.nodes[at].Addr()); err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		f.probes = append(f.probes, pr)
		// A client must Join before it may query; live-flood's is empty.
		if err := pr.join(nil); err != nil {
			return nil, err
		}
		want[at] += len(pr.files)
	}
	if err := waitFor("joins to be indexed", func() bool {
		for i, n := range f.nodes {
			if n.Stats().IndexedFiles != want[i] {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}

	warm, err := f.drive(0, r.sz.warmSearches, nil)
	if err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d searches failed", warm.failed, warm.searches)
	}
	return f, nil
}

// probe is one closed-loop client: raw TCP plus the gnutella codec. It does
// not use p2p.Client.Search, which sleeps out a fixed collection window; the
// probe knows how many results to expect and stops the clock at the last.
type probe struct {
	f      *fleet
	idx    int
	conn   net.Conn
	br     *bufio.Reader
	rng    *stats.RNG
	joinID gnutella.GUID
	files  []gnutella.MetadataRecord // own collection, re-Joined under churn

	n        int // searches sent
	failed   int
	busy     int
	timeouts int
	stale    int // hits for a search other than the current one
	lat      []float64
}

func (p *probe) join(buf *spanBuf) error {
	id := buf.begin("probe.rejoin_write", 0, p.op())
	err := gnutella.WriteMessage(p.conn, &gnutella.Join{ID: p.joinID, Files: p.files})
	buf.end(id)
	if err != nil {
		return fmt.Errorf("probe %d join: %w", p.idx, err)
	}
	return nil
}

// op is the id shared by the spans of the probe's current search.
func (p *probe) op() int { return p.idx<<32 | p.n }

// search runs one search to its last expected result. A timeout, a Busy or a
// wrong result makes it a failed operation; only a broken link is an error.
func (p *probe) search(buf *spanBuf) error {
	term := p.f.needles[p.rng.Intn(len(p.f.needles))]
	q := &gnutella.Query{ID: guid(p.rng), TTL: liveTTL, Text: term}
	op := p.op()
	p.n++

	root := buf.begin("probe.search", 0, op)
	defer buf.end(root)
	stage := buf.begin("probe.write_query", root, op)
	start := time.Now()
	p.conn.SetDeadline(start.Add(searchTimeout))
	err := gnutella.WriteMessage(p.conn, q)
	buf.end(stage)
	if err != nil {
		return fmt.Errorf("probe %d write: %w", p.idx, err)
	}

	stage = buf.begin("probe.wait_first_hit", root, op)
	defer func() { buf.end(stage) }()
	results, ok := 0, true
	for results < p.f.expected {
		m, err := gnutella.ReadMessage(p.br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				p.timeouts++
				p.failed++
				return nil
			}
			return fmt.Errorf("probe %d read: %w", p.idx, err)
		}
		switch m := m.(type) {
		case *gnutella.QueryHit:
			if m.ID != q.ID {
				p.stale++
				continue
			}
			if results == 0 {
				buf.end(stage)
				stage = buf.begin("probe.wait_last_hit", root, op)
			}
			for _, res := range m.Results {
				if !strings.HasPrefix(res.Title, term) {
					ok = false
				}
			}
			results += len(m.Results)
		case *gnutella.Busy:
			p.busy++
			ok = false
		}
	}
	if !ok || results != p.f.expected {
		p.failed++
		return nil
	}
	p.lat = append(p.lat, float64(time.Since(start).Nanoseconds())/1e6)
	return nil
}

// fleetCounters is a fleet-wide sum of the nodes' public counters.
type fleetCounters struct {
	handled, forwarded, shed, procUnits float64
	svcSum, svcCount                    float64
	msgs, wireBytes                     [metrics.NumClasses][metrics.NumDirs]float64
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, n := range f.nodes {
		st, m := n.Stats(), n.Metrics()
		c.handled += float64(st.QueriesHandled)
		c.shed += float64(st.QueriesShed + st.RateLimited)
		c.forwarded += float64(m.QueriesForwarded.Value())
		c.procUnits += m.ProcUnits.Value()
		h := m.QueryService.Snapshot()
		c.svcSum += h.Sum
		c.svcCount += float64(h.Count)
		for cl := 0; cl < metrics.NumClasses; cl++ {
			for d := 0; d < metrics.NumDirs; d++ {
				c.msgs[cl][d] += float64(m.Load.Messages(metrics.Class(cl), metrics.Dir(d)))
				c.wireBytes[cl][d] += float64(m.Load.Bytes(metrics.Class(cl), metrics.Dir(d)))
			}
		}
	}
	return c
}

// plus returns c + sign*o, field by field.
func (c fleetCounters) plus(o fleetCounters, sign float64) fleetCounters {
	c.handled += sign * o.handled
	c.forwarded += sign * o.forwarded
	c.shed += sign * o.shed
	c.procUnits += sign * o.procUnits
	c.svcSum += sign * o.svcSum
	c.svcCount += sign * o.svcCount
	for cl := range c.msgs {
		for d := range c.msgs[cl] {
			c.msgs[cl][d] += sign * o.msgs[cl][d]
			c.wireBytes[cl][d] += sign * o.wireBytes[cl][d]
		}
	}
	return c
}

func total(m [metrics.NumClasses][metrics.NumDirs]float64) float64 {
	t := 0.0
	for cl := range m {
		for d := range m[cl] {
			t += m[cl][d]
		}
	}
	return t
}

// quiesce waits until no node is still handling duplicate copies of a
// finished search, so counter deltas cover whole searches exactly.
func (f *fleet) quiesce() {
	last, stable := -1.0, 0
	for stable < 3 {
		h := 0.0
		for _, n := range f.nodes {
			h += float64(n.Metrics().QueriesHandled.Value())
		}
		if h == last {
			stable++
		} else {
			last, stable = h, 0
		}
		time.Sleep(time.Millisecond)
	}
}

type driveResult struct {
	searches, failed, busy, timeouts, stale int
	lat                                     []float64 // ms, completed searches
	w                                       window
	delta                                   fleetCounters
}

// add folds another window's results into r.
func (r *driveResult) add(o *driveResult) {
	r.searches += o.searches
	r.failed += o.failed
	r.busy += o.busy
	r.timeouts += o.timeouts
	r.stale += o.stale
	r.lat = append(r.lat, o.lat...)
	r.w.wall += o.w.wall
	r.w.cpu += o.w.cpu
	r.w.alloc += o.w.alloc
	r.delta = r.delta.plus(o.delta, 1)
}

// drive runs every probe closed-loop for dur, or for count searches each when
// count > 0, and returns what they saw with the fleet's counter deltas.
func (f *fleet) drive(dur time.Duration, count int, tr *tracer) (*driveResult, error) {
	for _, p := range f.probes {
		p.n, p.failed, p.busy, p.timeouts, p.stale, p.lat = 0, 0, 0, 0, 0, p.lat[:0]
	}
	f.quiesce()
	before := f.counters()
	errs := make([]error, len(f.probes))
	var wg sync.WaitGroup
	w := timed(func() {
		deadline := time.Now().Add(dur)
		for i, p := range f.probes {
			wg.Add(1)
			go func(i int, p *probe) {
				defer wg.Done()
				buf := tr.buffer()
				for {
					if count > 0 && p.n >= count || count == 0 && !time.Now().Before(deadline) {
						return
					}
					if every := f.p.rejoinEvery; every > 0 && p.n%every == 0 {
						if errs[i] = p.join(buf); errs[i] != nil {
							return
						}
					}
					if errs[i] = p.search(buf); errs[i] != nil {
						return
					}
				}
			}(i, p)
		}
		wg.Wait()
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	f.quiesce()
	res := &driveResult{w: w, delta: f.counters().plus(before, -1)}
	for _, p := range f.probes {
		res.searches += p.n
		res.failed += p.failed
		res.busy += p.busy
		res.timeouts += p.timeouts
		res.stale += p.stale
		res.lat = append(res.lat, p.lat...)
	}
	return res, nil
}

func runLive(r *run, p liveParams) error {
	r.params["fleet"] = fmt.Sprintf("%d clusters x %d partners, ring, flood, TTL %d, heartbeats off, loopback", liveClusters, livePartners, liveTTL)
	r.params["probes"] = liveProbes
	r.params["files_per_node"] = fillerFiles + needleTerms*p.plants
	r.params["needle_terms"] = needleTerms
	r.params["plants_per_needle_per_node"] = p.plants
	r.params["rejoin_every"] = p.rejoinEvery
	r.params["warm_searches_per_probe"] = r.sz.warmSearches

	var f *fleet
	teardown, err := r.setUp(func() (func(), error) {
		var err error
		if f, err = launchFleet(r, p); err != nil {
			return nil, err
		}
		return f.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	dur := time.Duration(r.seconds * float64(time.Second))
	res, untraced := &driveResult{}, &driveResult{}
	if r.trace {
		// Traced and untraced slices alternate, so that drift in the fleet
		// (its route tables grow all run long) falls on both alike and the
		// difference between them is the tracing.
		const slices = 4
		for i := 0; i < slices; i++ {
			plain, err := f.drive(dur/(2*slices), 0, nil)
			if err != nil {
				return err
			}
			untraced.add(plain)
			traced, err := f.drive(dur/slices, 0, r.tr)
			if err != nil {
				return err
			}
			res.add(traced)
		}
	} else if res, err = f.drive(dur, 0, nil); err != nil {
		return err
	}
	r.attempted, r.failed = res.searches, res.failed
	if len(res.lat) == 0 {
		return fmt.Errorf("no search completed")
	}
	r.recordOps(float64(len(res.lat)), res.lat, res.w)
	r.info("search_qps", r.e2e["ops_per_s"], "1/s")
	r.info("search_p50_ms", r.e2e["op_p50_ms"], "ms")
	r.info("search_p95_ms", r.infos["op_p95_ms"].Value, "ms")

	// A benchmark that measures a shedding fleet measures the wrong thing.
	if res.busy > 0 {
		r.problem("probes received %d Busy frames", res.busy)
	}
	if res.delta.shed != 0 {
		r.problem("fleet shed %.0f queries", res.delta.shed)
	}
	if res.stale > 0 && res.timeouts == 0 {
		r.problem("%d hits arrived for searches that were already complete", res.stale)
	}
	if r.trace {
		return liveLayers(r, f, res, untraced)
	}
	return nil
}
