package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/faults"
	"spnet/internal/gnutella"
	"spnet/internal/index"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/routing"
	"spnet/internal/stats"
	"spnet/internal/topology"
	"spnet/internal/workload"
)

// Layer probes, run only in the traced run: each times calls into one
// layer's public functions, from outside, under one span per probe. What a
// probe measures is a unit cost; the workload's counters say how many units a
// search, an event or a fetch consumes.

// probeSpan runs one layer probe under a span and stores its value.
func (r *run) probeSpan(buf *spanBuf, name string, f func() float64) {
	buf.do(name, 0, func() { r.layer[name] = f() })
}

// codecLayer measures the gnutella codec on the five frame shapes the
// workloads put on the wire.
func codecLayer(r *run, buf *spanBuf) error {
	rng := stats.NewRNG(r.seed).Split(2)
	vocab := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	hit := func(results int) *gnutella.QueryHit {
		h := &gnutella.QueryHit{ID: guid(rng), TTL: liveTTL,
			Responders: []gnutella.ResponderRecord{{IP: [4]byte{127, 0, 0, 1}, Port: 4000, ClientGUID: guid(rng), ResultCount: uint16(results)}}}
		for i := 0; i < results; i++ {
			h.Results = append(h.Results, gnutella.ResultRecord{FileIndex: uint32(i), Title: "needle " + fillerTitle(rng, vocab, 3)})
		}
		return h
	}
	join := &gnutella.Join{ID: guid(rng)}
	for i := 0; i < rejoinFiles; i++ {
		join.Files = append(join.Files, gnutella.MetadataRecord{FileIndex: uint32(i), FileSize: 1 << 20, Title: fillerTitle(rng, vocab, 4)})
	}
	frames := map[string]gnutella.Message{
		"query":        &gnutella.Query{ID: guid(rng), TTL: liveTTL, Text: "nabcde07"},
		"queryhit1":    hit(1),
		"queryhit25":   hit(25),
		"join200":      join,
		"chunkdata64k": &gnutella.ChunkData{ID: guid(rng), Chunk: 1, TotalChunks: 1024, FileSize: 64 << 20, Data: make([]byte, 64<<10)},
	}
	for _, kind := range frameKinds {
		m := frames[kind]
		var wire bytes.Buffer
		if err := gnutella.WriteMessage(&wire, m); err != nil {
			return fmt.Errorf("codec probe %s: %w", kind, err)
		}
		encoded := append([]byte(nil), wire.Bytes()...)
		if _, err := gnutella.ReadMessage(bytes.NewReader(encoded)); err != nil {
			return fmt.Errorf("codec probe %s: %w", kind, err)
		}
		rd := bytes.NewReader(encoded)
		r.probeSpan(buf, "gnutella.write_ns."+kind, func() float64 {
			return perOpNs(func() { wire.Reset(); gnutella.WriteMessage(&wire, m) })
		})
		r.probeSpan(buf, "gnutella.read_ns."+kind, func() float64 {
			return perOpNs(func() { rd.Reset(encoded); gnutella.ReadMessage(rd) })
		})
		r.probeSpan(buf, "gnutella.allocs."+kind, func() float64 {
			return allocsPerOp(func() {
				wire.Reset()
				gnutella.WriteMessage(&wire, m)
				rd.Reset(wire.Bytes())
				gnutella.ReadMessage(rd)
			})
		})
	}
	return nil
}

func terms(title string) []string { return strings.Fields(strings.ToLower(title)) }

// indexLayer measures the inverted index on node 0's collection.
func indexLayer(r *run, buf *spanBuf, f *fleet) {
	ix := index.New()
	for _, rec := range f.collections[0] {
		ix.Add(index.DocID{Owner: 0, File: rec.FileIndex}, terms(rec.Title))
	}
	i := 0
	hit := func() float64 {
		return perOpNs(func() { ix.Search([]string{f.needles[i%len(f.needles)]}); i++ })
	}
	r.probeSpan(buf, fmt.Sprintf("index.search_ns.hit%d", f.p.plants), hit)
	r.probeSpan(buf, "index.search_ns.miss", func() float64 {
		return perOpNs(func() { ix.Search([]string{"zzzabsent"}) })
	})
	// A re-Join is RemoveOwner plus one Add per file, under Node.mu.
	docs := make([][]string, rejoinFiles)
	rng := stats.NewRNG(r.seed).Split(3)
	for j := range docs {
		docs[j] = terms(fillerTitle(rng, f.vocab, 4))
	}
	var addNs, removeNs []float64
	buf.do("index.rejoin", 0, func() {
		for round := 0; round < 30; round++ {
			t0 := time.Now()
			for j, d := range docs {
				ix.Add(index.DocID{Owner: 1, File: uint32(j)}, d)
			}
			t1 := time.Now()
			ix.RemoveOwner(1)
			addNs = append(addNs, float64(t1.Sub(t0).Nanoseconds())/rejoinFiles)
			removeNs = append(removeNs, float64(time.Since(t1).Nanoseconds()))
		}
	})
	r.layer["index.add_ns"] = stats.Percentile(addNs, 50)
	r.layer["index.remove_owner_ns.docs200"] = stats.Percentile(removeNs, 50)
	r.probeSpan(buf, "index.summary_ns", func() float64 { return perOpNs(func() { ix.Summary() }) })
}

// routingLayer measures Strategy.Select over 5 candidates whose summaries are
// the other nodes' collections.
func routingLayer(r *run, buf *spanBuf, f *fleet) {
	ns := routing.NewNodeState(stats.NewRNG(r.seed).Split(4))
	cands := make([]routing.Candidate, livePeerLinks)
	for i := range cands {
		cands[i] = routing.Candidate{ID: i}
		var ts []string
		for _, rec := range f.collections[i+1] {
			ts = append(ts, terms(rec.Title)...)
		}
		ns.SetSummary(i, ts)
	}
	q := routing.Query{ID: 1, Terms: []string{f.needles[0]}, TTL: liveTTL, Hops: 1}
	dst := make([]int, 0, len(cands))
	for _, s := range []routing.Strategy{routing.NewFlood(), routing.NewRoutingIndex(), routing.NewLearned(), routing.NewRandomWalk(routing.DefaultWalkers)} {
		name := s.Name()
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
		r.probeSpan(buf, "routing.select_ns."+name, func() float64 {
			return perOpNs(func() { q.ID++; dst = s.Select(dst[:0], q, cands, ns) })
		})
	}
	flood := routing.NewFlood()
	r.probeSpan(buf, "routing.select_allocs.flood", func() float64 {
		return allocsPerOp(func() { dst = flood.Select(dst[:0], q, cands, ns) })
	})
}

// telemetryLayer measures what every message and every dispatch pays the
// metrics package.
func telemetryLayer(r *run, buf *spanBuf) {
	nm := metrics.NewNodeMetrics()
	q := &gnutella.Query{Text: "nabcde07"}
	r.probeSpan(buf, "metrics.counter_inc_ns", func() float64 { return perOpNs(nm.QueriesHandled.Inc) })
	r.probeSpan(buf, "metrics.histogram_observe_ns", func() float64 {
		return perOpNs(func() { nm.QueryService.Observe(0.0004) })
	})
	r.probeSpan(buf, "metrics.meter_ns", func() float64 {
		return perOpNs(func() { gnutella.Meter(nm.Load, metrics.DirIn, q) })
	})
}

// nullConn is a connection whose writes cost nothing, so that timing a
// wrapper around it times the wrapper alone.
type nullConn struct{ net.Conn }

func (nullConn) Write(p []byte) (int, error) { return len(p), nil }

// faultsLayer measures what a 64-byte write pays for going through the fault
// controller's wrapper, which every link of a network.Live fleet does.
func faultsLayer(r *run, buf *spanBuf) {
	var raw net.Conn = nullConn{}
	wrapped := faults.NewController(r.seed).WrapAccept("bench")(raw)
	payload := make([]byte, 64)
	r.probeSpan(buf, "faults.wrap_write_overhead_ns", func() float64 {
		return perOpNs(func() { wrapped.Write(payload) }) - perOpNs(func() { raw.Write(payload) })
	})
}

// socketLayer measures the CPU one small message costs below the codec: a
// 64-byte write to a loopback socket, the netpoller waking the goroutine
// blocked reading the other end, and its read. A ping-pong between two
// goroutines is two such messages per round trip.
func socketLayer(r *run, buf *spanBuf) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	srv, err := ln.Accept()
	if err != nil {
		return err
	}
	echoed := make(chan error, 1)
	go func() { // echo until the client closes
		defer srv.Close()
		msg := make([]byte, 64)
		for {
			if _, err := io.ReadFull(srv, msg); err != nil {
				echoed <- nil
				return
			}
			if _, err := srv.Write(msg); err != nil {
				echoed <- err
				return
			}
		}
	}()
	const trips = 20000
	msg := make([]byte, 64)
	id := buf.begin("net.loopback_msg_cpu_us", 0, 0)
	w := timed(func() {
		for i := 0; i < trips && err == nil; i++ {
			if _, err = c.Write(msg); err == nil {
				_, err = io.ReadFull(c, msg)
			}
		}
	})
	buf.end(id)
	c.Close()
	if e := <-echoed; err == nil {
		err = e
	}
	r.layer["net.loopback_msg_cpu_us"] = w.cpu / (2 * trips) * 1e6
	return err
}

// joinIndexed times a 200-file Join from the moment it is written until the
// node's Stats show it indexed.
func joinIndexed(r *run, buf *spanBuf, f *fleet) error {
	node := f.nodes[1] // no probe is attached here
	base := node.Stats().IndexedFiles
	c, _, err := dialClient(node.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	rng := stats.NewRNG(r.seed).Split(5)
	j := &gnutella.Join{ID: guid(rng)}
	for i := 0; i < rejoinFiles; i++ {
		j.Files = append(j.Files, gnutella.MetadataRecord{FileIndex: uint32(i), FileSize: 1 << 20, Title: fillerTitle(rng, f.vocab, 4)})
	}
	id := buf.begin("p2p.join_indexed_ms", 0, 0)
	t0 := time.Now()
	if err := gnutella.WriteMessage(c, j); err != nil {
		return err
	}
	err = waitFor("probe join to be indexed", func() bool { return node.Stats().IndexedFiles == base+rejoinFiles })
	r.layer["p2p.join_indexed_ms"] = time.Since(t0).Seconds() * 1e3
	buf.end(id)
	if err != nil {
		return err
	}
	c.Close()
	return waitFor("probe join to be dropped", func() bool { return node.Stats().IndexedFiles == base })
}

// spanDurations collects, per span name, every span's duration in µs.
func spanDurations(t *tracer) map[string][]float64 {
	out := make(map[string][]float64)
	for _, b := range t.bufs {
		for _, s := range b.spans {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// modelWireBytes is the analysis' prediction of query+response wire bytes per
// query, summed over all super-peers and both directions, for the overlay the
// live workloads run: the figure p2p.wire_bytes_per_search is held against.
// The live flood treats every partner as a super-peer of its own, so the
// model gets the same 8-node link graph: each node linked to its co-partner
// and to both partners of the two ring-adjacent clusters, one client per node
// holding the planted matches, a single query class that matches every file,
// and nobody churning. Live searches all enter through a client; the model
// spreads queries over all users, so 99 idle clients per node stand in for
// "nearly every query has a client leg".
func modelWireBytes(plants, queryLen int) (float64, error) {
	qm, err := workload.NewQueryModel([]float64{1}, []float64{1})
	if err != nil {
		return 0, err
	}
	var edges [][2]int
	node := func(c, k int) int { return (c%liveClusters)*livePartners + k }
	for c := 0; c < liveClusters; c++ {
		edges = append(edges, [2]int{node(c, 0), node(c, 1)})
		for k := 0; k < livePartners; k++ {
			for k2 := 0; k2 < livePartners; k2++ {
				edges = append(edges, [2]int{node(c, k), node(c+1, k2)})
			}
		}
	}
	g, err := topology.NewAdjGraph(liveNodes, edges)
	if err != nil {
		return 0, err
	}
	const never, clients = 1e12, 100
	clusters := make([]network.Cluster, liveNodes)
	for v := range clusters {
		cl := network.Cluster{
			Partners:   []network.Peer{{Lifespan: never}},
			Clients:    make([]network.Peer, clients),
			IndexFiles: plants, ExpResults: float64(plants), ExpAddrs: 1, ProbResp: 1,
		}
		for i := range cl.Clients {
			cl.Clients[i] = network.Peer{Lifespan: never}
		}
		cl.Clients[0].Files = plants
		clusters[v] = cl
	}
	users := liveNodes * (clients + 1)
	inst := &network.Instance{
		Config:   network.Config{GraphType: network.PowerLaw, GraphSize: users, ClusterSize: clients + 1, KRedundancy: 1, AvgOutdegree: livePeerLinks, TTL: liveTTL},
		Profile:  &workload.Profile{Queries: qm, Rates: workload.Rates{QueryRate: 1}, QueryLen: queryLen},
		Graph:    g,
		Clusters: clusters,
		NumPeers: users,
	}
	res := analysis.Evaluate(inst)
	bits := 0.0
	for v := range clusters {
		b := res.SuperPeerClassBps(v)
		for _, d := range []metrics.Dir{metrics.DirIn, metrics.DirOut} {
			bits += b.Sum(d, metrics.ClassQuery, metrics.ClassResponse)
		}
	}
	return bits / 8 / float64(users), nil // every user issues 1 query/s
}

// liveLayers fills in the per-layer metrics of a live workload's traced run.
func liveLayers(r *run, f *fleet, res, untraced *driveResult) error {
	buf := r.tr.buffer()
	n := float64(res.searches)
	d := res.delta
	L := r.layer

	L["p2p.dispatch_per_search"] = d.handled / n
	L["p2p.forwards_per_search"] = d.forwarded / n
	L["p2p.msgs_per_search"] = total(d.msgs) / n
	L["p2p.wire_bytes_per_search"] = total(d.wireBytes) / n
	L["p2p.proc_units_per_search"] = d.procUnits / n
	L["p2p.shed_per_search"] = d.shed / n
	L["p2p.service_us_mean"] = d.svcSum / d.svcCount * 1e6
	L["p2p.cpu_us_per_search"] = res.w.cpu / n * 1e6
	L["p2p.cpu_util"] = res.w.cpu / (res.w.wall * float64(runtime.NumCPU()))
	L["network.live_launch_ms"] = f.launchMs

	spans := spanDurations(r.tr)
	L["probe.write_us"] = stats.Mean(spans["probe.write_query"])
	L["probe.first_hit_us_p50"] = stats.Percentile(spans["probe.wait_first_hit"], 50)
	L["probe.last_hit_us_p50"] = stats.Percentile(spans["probe.wait_last_hit"], 50)
	L["probe.search_p95_ms"] = stats.Percentile(res.lat, 95)
	L["probe.search_p99_ms"] = stats.Percentile(res.lat, 99)
	if f.p.rejoinEvery > 0 {
		L["probe.rejoin_write_us"] = stats.Mean(spans["probe.rejoin_write"])
	}
	tracedQPS := float64(len(res.lat)) / res.w.wall
	untracedQPS := float64(len(untraced.lat)) / untraced.w.wall
	L["trace.overhead_frac"] = 1 - tracedQPS/untracedQPS
	r.note("traced %.0f searches/s over %.1f s, untraced %.0f searches/s over %.1f s", tracedQPS, res.w.wall, untracedQPS, untraced.w.wall)

	if err := joinIndexed(r, buf, f); err != nil {
		return err
	}
	if err := codecLayer(r, buf); err != nil {
		return err
	}
	indexLayer(r, buf, f)
	routingLayer(r, buf, f)
	telemetryLayer(r, buf)
	faultsLayer(r, buf)
	if err := socketLayer(r, buf); err != nil {
		return err
	}
	return liveBudget(r, f, res)
}

// liveBudget sets each layer's unit cost beside the number of units one
// search consumed, and the analysis' wire-byte prediction beside the bytes
// measured.
func liveBudget(r *run, f *fleet, res *driveResult) error {
	n := float64(res.searches)
	d, L := res.delta, r.layer
	per := func(cl metrics.Class, dir metrics.Dir) float64 { return d.msgs[cl][dir] / n }
	// The probe's own codec work runs in this process too: one Query written
	// and one QueryHit read per node, and under churn its Joins.
	qOut, qIn := per(metrics.ClassQuery, metrics.DirOut)+1, per(metrics.ClassQuery, metrics.DirIn)
	hOut, hIn := per(metrics.ClassResponse, metrics.DirOut), per(metrics.ClassResponse, metrics.DirIn)+liveNodes
	joins := per(metrics.ClassJoin, metrics.DirIn)
	hit := fmt.Sprintf("queryhit%d", f.p.plants)
	fleetMsgs := total(d.msgs) / n
	fleetWrites := qOut - 1 + hOut
	dispatches := d.handled / n
	budget := map[string]float64{
		"gnutella": (qOut*L["gnutella.write_ns.query"] + qIn*L["gnutella.read_ns.query"] +
			hOut*L["gnutella.write_ns."+hit] + hIn*L["gnutella.read_ns."+hit] +
			joins*(L["gnutella.write_ns.join200"]+L["gnutella.read_ns.join200"])) / 1e3,
		"index": (liveNodes*L[fmt.Sprintf("index.search_ns.hit%d", f.p.plants)] +
			joins*(rejoinFiles*L["index.add_ns"]+L["index.remove_owner_ns.docs200"])) / 1e3,
		"routing": liveNodes * L["routing.select_ns.flood"] / 1e3,
		"metrics": (fleetMsgs*L["metrics.meter_ns"] + dispatches*(L["metrics.counter_inc_ns"]+L["metrics.histogram_observe_ns"])) / 1e3,
		"faults":  fleetWrites * L["faults.wrap_write_overhead_ns"] / 1e3,
		// Every message crosses a loopback socket: the fleet's own, counted
		// where they are read, plus the hits the probe reads. Priced as small
		// messages, which undercounts 25-result hits and Joins.
		"net": (qIn + hIn + joins) * L["net.loopback_msg_cpu_us"],
	}
	accounted := 0.0
	for _, us := range budget {
		accounted += us
	}
	cpu := L["p2p.cpu_us_per_search"]
	budget["cpu_total"] = cpu
	// What the unit costs do not cover: the dispatch queue's hand-off to a
	// worker goroutine, building the QueryHit, waiting on Node.mu, allocation
	// and the collector.
	budget["unaccounted_dispatch_locks_gc"] = cpu - accounted
	L["budget.accounted_frac"] = accounted / cpu
	r.budget = budget

	model, err := modelWireBytes(f.p.plants, len(f.needles[0]))
	if err != nil {
		return err
	}
	live := 0.0
	for _, cl := range []metrics.Class{metrics.ClassQuery, metrics.ClassResponse} {
		live += (d.wireBytes[cl][metrics.DirIn] + d.wireBytes[cl][metrics.DirOut]) / n
	}
	L["model.wire_bytes_err_frac"] = (live - model) / model
	r.note("query+response wire bytes per search: live %.0f B, analysis predicts %.0f B", live, model)
	return nil
}
