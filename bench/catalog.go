package main

// The catalog is the single declaration of what this benchmark measures:
// workloads, end-to-end metrics with their regression bounds, and per-layer
// metrics with the end-to-end metric and workload each is expected to move.
// BENCHMARK.json at the repository root repeats the names, units and bounds
// (its schema has no room for the rest); bench_test.go keeps the two equal.

// Workload names.
const (
	wLiveFlood = "live-flood"
	wLiveHeavy = "live-churn-heavyhit"
	wSimChurn  = "sim-churn"
	wAnalysis  = "analysis-10k"
	wTransfer  = "transfer-3src"
)

type workloadDef struct {
	Name string
	// Op says what one operation is: ops_per_s, op_p50_ms, cpu_s_per_kop and
	// alloc_kb_per_op are all per this unit.
	Op  string
	Why string
	run func(*run) error
}

var workloads = []workloadDef{
	{wLiveFlood, "one search: Query written, 8 one-result QueryHits read back",
		"smallest frames on a live 4x2 loopback ring, so per-message cost (codec, dispatch queue, Node.mu, socket writes) is all there is",
		runLiveFlood},
	{wLiveHeavy, "one search: Query written, 200 results in 25-result QueryHits read back",
		"same fleet with 25-result hits and a 200-file re-Join before every 4th search: large frames and index writes beside reads",
		runLiveHeavy},
	{wSimChurn, "1000 simulator events of a 30-virtual-second sim.Run with churn",
		"only workload where the discrete-event scheduler does the work and the live stack none: 2000 peers with client churn",
		runSimChurn},
	{wAnalysis, "one round: analysis.Evaluate on 4 instances of 10^4 peers plus a 5-goal design.Run sweep",
		"pure compute at paper scale in topology, analysis, design and parallel; no sockets, no event heap",
		runAnalysis},
	{wTransfer, "one transfer.Fetch of a 64 MiB title from 3 sources",
		"64 KiB ChunkData frames from three nodes sharing one store: sha256, copies and the store, bypassing dispatch, index and routing",
		runTransfer},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// e2eDef is one end-to-end metric. Every workload reports every one of them,
// per its own Op; Bound is the share of the parent's median by which it may
// worsen. README.md defines each.
type e2eDef struct {
	Name, Unit, Better string
	Bound              float64
}

var e2eMetrics = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_s_per_kop", "s", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.15},
}

// layerDef is one per-layer metric, gathered only in the traced run. On lists
// the workloads whose traced run measures it; every other workload bypasses
// the layer and reports 0. Moves names the end-to-end metric @ workload it is
// expected to move ("" = recorded for reference, moves nothing today).
type layerDef struct {
	Name, Unit, Better string
	On                 []string
	Moves              string
}

var (
	onAll      = []string{wLiveFlood, wLiveHeavy, wSimChurn, wAnalysis, wTransfer}
	onLive     = []string{wLiveFlood, wLiveHeavy}
	onFlood    = []string{wLiveFlood}
	onHeavy    = []string{wLiveHeavy}
	onWire     = []string{wLiveFlood, wLiveHeavy, wTransfer}
	onSim      = []string{wSimChurn}
	onAnalysis = []string{wAnalysis}
	onTransfer = []string{wTransfer}
)

const (
	mvFloodQPS  = "ops_per_s@live-flood"
	mvHeavyQPS  = "ops_per_s,op_p50_ms@live-churn-heavyhit"
	mvHeavyP95  = "op_p50_ms,probe.search_p95_ms@live-churn-heavyhit"
	mvLiveQPS   = "ops_per_s@live-*"
	mvLiveP50   = "op_p50_ms@live-*"
	mvLiveBoth  = "ops_per_s,op_p50_ms@live-*"
	mvSetup     = "setup_s@all"
	mvSim       = "ops_per_s@sim-churn"
	mvAnalysis  = "ops_per_s,op_p50_ms@analysis-10k"
	mvTransfer  = "ops_per_s@transfer-3src"
	mvReference = ""
)

var frameKinds = []string{"query", "queryhit1", "queryhit25", "join200", "chunkdata64k"}

// frameMoves: which end-to-end number each frame kind's codec cost limits.
var frameMoves = map[string]string{
	"query": mvFloodQPS, "queryhit1": mvFloodQPS,
	"queryhit25": mvHeavyQPS, "join200": mvHeavyQPS,
	"chunkdata64k": mvTransfer,
}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerDef {
	var out []layerDef
	add := func(name, unit, better string, on []string, moves string) {
		out = append(out, layerDef{name, unit, better, on, moves})
	}
	// gnutella: one frame through a bytes.Buffer; allocs are exact for the
	// write+read round trip.
	for _, k := range frameKinds {
		add("gnutella.write_ns."+k, "ns", "lower", onWire, frameMoves[k])
	}
	for _, k := range frameKinds {
		add("gnutella.read_ns."+k, "ns", "lower", onWire, frameMoves[k])
	}
	for _, k := range frameKinds {
		add("gnutella.allocs."+k, "count", "lower", onWire, frameMoves[k])
	}
	// index: built from one node's workload collection.
	add("index.search_ns.hit1", "ns", "lower", onFlood, mvLiveP50)
	add("index.search_ns.hit25", "ns", "lower", onHeavy, mvLiveP50)
	add("index.search_ns.miss", "ns", "lower", onLive, mvLiveP50)
	add("index.add_ns", "ns", "lower", onLive, mvHeavyP95)
	add("index.remove_owner_ns.docs200", "ns", "lower", onLive, mvHeavyP95)
	add("index.summary_ns", "ns", "lower", onLive, mvReference)
	// routing: 5 candidates, 1-term query, summaries from the workload's titles.
	add("routing.select_ns.flood", "ns", "lower", onLive, mvLiveQPS)
	add("routing.select_ns.routingindex", "ns", "lower", onLive, mvReference)
	add("routing.select_ns.learned", "ns", "lower", onLive, mvReference)
	add("routing.select_ns.randomwalk", "ns", "lower", onLive, mvReference)
	add("routing.select_allocs.flood", "count", "lower", onLive, mvLiveQPS)
	// p2p: fleet-summed deltas of public counters across the measured window.
	add("p2p.dispatch_per_search", "count", "lower", onLive, mvLiveBoth)
	add("p2p.forwards_per_search", "count", "lower", onLive, mvLiveBoth)
	add("p2p.msgs_per_search", "count", "lower", onLive, mvLiveBoth)
	add("p2p.wire_bytes_per_search", "B", "lower", onLive, mvLiveBoth)
	add("p2p.proc_units_per_search", "units", "lower", onLive, mvReference)
	add("p2p.shed_per_search", "count", "lower", onLive, mvLiveBoth)
	add("p2p.service_us_mean", "us", "lower", onLive, mvLiveBoth)
	add("p2p.cpu_us_per_search", "us", "lower", onLive, mvLiveBoth)
	add("p2p.cpu_util", "frac", "higher", onLive, mvLiveQPS)
	add("p2p.join_indexed_ms", "ms", "lower", onLive, mvHeavyP95)
	// probe: the bench's own client spans.
	add("probe.write_us", "us", "lower", onLive, mvLiveP50)
	add("probe.first_hit_us_p50", "us", "lower", onLive, mvLiveP50)
	add("probe.last_hit_us_p50", "us", "lower", onLive, mvLiveP50)
	add("probe.search_p95_ms", "ms", "lower", onLive, mvReference)
	add("probe.search_p99_ms", "ms", "lower", onLive, mvReference)
	add("probe.rejoin_write_us", "us", "lower", onHeavy, mvHeavyP95)
	// metrics: the telemetry budget every message pays.
	add("metrics.counter_inc_ns", "ns", "lower", onLive, mvFloodQPS)
	add("metrics.histogram_observe_ns", "ns", "lower", onLive, mvFloodQPS)
	add("metrics.meter_ns", "ns", "lower", onLive, mvFloodQPS)
	// faults: what every network.Live link pays for being wrapped.
	add("faults.wrap_write_overhead_ns", "ns", "lower", onLive, mvLiveQPS)
	// net: the socket and scheduler cost under every message, measured on a
	// bare loopback ping-pong.
	add("net.loopback_msg_cpu_us", "us", "lower", onLive, mvLiveQPS)
	// network / topology.
	add("network.live_launch_ms", "ms", "lower", onLive, mvSetup)
	add("network.generate_ms.2k", "ms", "lower", onSim, mvSetup)
	add("network.generate_ms.10k", "ms", "lower", onAnalysis, mvSetup)
	add("topology.powerlaw_ms.1k", "ms", "lower", onAnalysis, mvSetup)
	add("topology.bfs_us.1k", "us", "lower", onAnalysis, mvAnalysis)
	// analysis / design / parallel.
	add("analysis.evaluate_ms.10k", "ms", "lower", onAnalysis, mvAnalysis)
	add("analysis.evaluate_allocs.10k", "count", "lower", onAnalysis, mvAnalysis)
	add("analysis.evaluate_mb.10k", "MB", "lower", onAnalysis, mvAnalysis)
	add("analysis.evaluate_clique_ms.10k", "ms", "lower", onAnalysis, mvReference)
	add("analysis.trials_per_s.w1", "1/s", "higher", onAnalysis, mvAnalysis)
	add("analysis.trials_per_s.wmax", "1/s", "higher", onAnalysis, mvAnalysis)
	add("analysis.trials_speedup", "x", "higher", onAnalysis, mvAnalysis)
	add("analysis.predict_transfer_us", "us", "lower", onAnalysis, mvReference)
	add("design.run_ms", "ms", "lower", onAnalysis, mvAnalysis)
	add("design.advise_ns", "ns", "lower", onAnalysis, mvReference)
	// sim.
	add("sim.new_ms", "ms", "lower", onSim, mvSim)
	add("sim.run_s", "s", "lower", onSim, mvSim)
	add("sim.events", "count", "lower", onSim, mvSim)
	add("sim.events_per_wall_s", "1/s", "higher", onSim, mvSim)
	add("sim.allocs_per_event", "count", "lower", onSim, mvSim)
	add("sim.bytes_per_event", "B", "lower", onSim, mvSim)
	add("sim.events_per_vsec", "1/s", "lower", onSim, mvReference)
	add("sim.vs_analysis_err_frac", "frac", "lower", onSim, mvReference)
	// transfer.
	add("transfer.goodput_mbps", "MB/s", "higher", onTransfer, mvTransfer)
	add("transfer.fetch_ms_p50", "ms", "lower", onTransfer, mvTransfer)
	add("transfer.store_add_ms.64m", "ms", "lower", onTransfer, mvSetup)
	add("transfer.chunk_read_us", "us", "lower", onTransfer, mvTransfer)
	add("transfer.manifest_build_mbps", "MB/s", "higher", onTransfer, mvSetup)
	add("transfer.wire_efficiency", "frac", "higher", onTransfer, mvTransfer)
	add("transfer.predict_wire_err_frac", "frac", "lower", onTransfer, mvReference)
	add("transfer.source_share_min", "frac", "higher", onTransfer, mvTransfer)
	// proc: the process as a whole. The traced run's figure includes its span log.
	add("proc.peak_rss_mb", "MB", "lower", onAll, mvReference)
	// Cross-layer.
	add("budget.accounted_frac", "frac", "higher", onLive, mvLiveQPS)
	add("model.wire_bytes_err_frac", "frac", "lower", onLive, mvReference)
	add("trace.overhead_frac", "frac", "lower", onLive, mvReference)
	return out
}

func measuredOn(d layerDef, workload string) bool {
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}
