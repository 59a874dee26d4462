// Package spnet is a library for designing and evaluating super-peer
// peer-to-peer networks, reproducing Yang & Garcia-Molina, "Designing a
// Super-Peer Network" (ICDE 2003).
//
// A super-peer network is a P2P overlay in which each node of the overlay is
// a super-peer serving a cluster of clients: clients submit queries to their
// super-peer, which answers from an index of its clients' collections and
// floods the query over the super-peer overlay with a TTL, Gnutella-style.
// The paper analyzes how cluster size, 2-redundant "virtual" super-peers,
// overlay outdegree and TTL trade off aggregate load, individual load,
// reliability and result quality — and distills rules of thumb, a global
// design procedure, and local adaptation rules.
//
// The library provides:
//
//   - Configuration and instance generation (Table 1, Section 4.1 Step 1):
//     Config, Generate, with PLOD power-law or strongly connected overlays
//     and measured-style workloads (Profile).
//   - The mean-value analysis engine (Steps 2–4): Evaluate for one instance,
//     RunTrials for repeated trials with 95% confidence intervals. Results
//     expose per-node, group and aggregate loads along incoming bandwidth,
//     outgoing bandwidth and processing power, plus results per query, reach
//     and expected path length.
//   - The global design procedure of Figure 10 (Design) and the TTL/EPL
//     helpers of rule #4 and Appendix F (PredictTTL, MeasureEPL).
//   - The Section 5.3 local decision rules (Advise) and a deterministic
//     discrete-event, message-level simulator (Simulate) that validates the
//     analysis and runs the local rules under churn.
//   - An experiment harness regenerating every table and figure of the
//     paper's evaluation (RunExperiment, ExperimentIDs).
//
// Quick start:
//
//	cfg := spnet.DefaultConfig()          // Table 1 defaults
//	inst, err := spnet.Generate(cfg, nil, 42)
//	if err != nil { ... }
//	res := spnet.Evaluate(inst)
//	fmt.Println(res.MeanSuperPeerLoad(), res.ResultsPerQuery)
package spnet

import (
	"net/http"

	"spnet/internal/analysis"
	"spnet/internal/content"
	"spnet/internal/control"
	"spnet/internal/design"
	"spnet/internal/experiments"
	"spnet/internal/faults"
	"spnet/internal/link"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/routing"
	"spnet/internal/sim"
	"spnet/internal/stats"
	"spnet/internal/transfer"
	"spnet/internal/workload"
)

// Config is a network configuration: the paper's Table 1 parameters.
type Config = network.Config

// GraphType selects the overlay topology.
type GraphType = network.GraphType

// Overlay topology kinds.
const (
	// Strong is the strongly connected (complete) super-peer overlay.
	Strong = network.Strong
	// PowerLaw is a PLOD-generated power-law overlay like Gnutella's.
	PowerLaw = network.PowerLaw
)

// DefaultConfig returns the paper's Table 1 defaults: a power-law network of
// 10000 peers, cluster size 10, no redundancy, average outdegree 3.1, TTL 7.
func DefaultConfig() Config { return network.DefaultConfig() }

// Profile describes user behavior: the query model (Appendix B), file-count
// and session-lifespan distributions, action rates and query length.
type Profile = workload.Profile

// DefaultProfile returns the calibrated default workload (see DESIGN.md for
// the calibration anchors).
func DefaultProfile() *Profile { return workload.DefaultProfile() }

// QueryModel is the query model of Appendix B: query-class popularity g(j)
// and per-class selection power f(j).
type QueryModel = workload.QueryModel

// NewQueryModel builds a query model from explicit popularity and selection
// power vectors.
func NewQueryModel(g, f []float64) (*QueryModel, error) {
	return workload.NewQueryModel(g, f)
}

// Instance is one realized network: an overlay of clusters with sampled
// clients, file counts and lifespans.
type Instance = network.Instance

// Generate realizes a configuration into an instance. A nil profile selects
// the default workload. The same (config, profile, seed) always produces the
// same instance.
func Generate(cfg Config, prof *Profile, seed uint64) (*Instance, error) {
	return network.Generate(cfg, prof, stats.NewRNG(seed))
}

// Load is work per unit time along the paper's three resource types:
// incoming bandwidth (bps), outgoing bandwidth (bps), processing power (Hz).
type Load = analysis.Load

// Result is the mean-value analysis of one instance: per-node expected loads
// (eq. 1), results per query (eq. 2), group loads (eq. 3), aggregate load
// (eq. 4), reach and expected path length.
type Result = analysis.Result

// Evaluate runs the paper's mean-value analysis over one instance.
func Evaluate(inst *Instance) *Result { return analysis.Evaluate(inst) }

// RoutingStrategy decides, per hop, which overlay neighbors receive a query —
// the pluggable replacement for the paper's hardcoded TTL flood. The same
// strategy value drives the simulator (SimOptions.Routing), live nodes
// (NodeOptions.Routing) and, through RoutingForwards, the analysis engine.
type RoutingStrategy = routing.Strategy

// RoutingForwards is a strategy's analytic model: the expected number of
// query copies a node with d eligible neighbors forwards, at the source and
// at relays. EvalOptions.Forwards consumes it; nil is the flood.
type RoutingForwards = routing.Forwards

// ParseRouting builds a strategy from a flag-style spec: "flood",
// "randomwalk" (optionally "randomwalk:k"), "routingindex" or "learned".
func ParseRouting(spec string) (RoutingStrategy, error) { return routing.Parse(spec) }

// EvalOptions selects what EvaluateWith models beyond the flood over honest
// relays: Forwards puts a routing strategy's forward model in place of the
// flood (each hop forwards fw.Source/fw.Relay copies in expectation instead of
// one per eligible neighbor, scaling query traffic, results and reach
// accordingly), and RelayDrop makes each non-source relay drop a query with
// that probability — the analytic counterpart of SimOptions.Adversary, where
// RelayDrop = (malicious fraction)·Drop. The zero value is Evaluate.
type EvalOptions = analysis.Options

// EvaluateWith runs the mean-value analysis under the given options.
func EvaluateWith(inst *Instance, opts EvalOptions) *Result {
	return analysis.EvaluateWith(inst, opts)
}

// Breakdown attributes aggregate load to protocol components (query
// transfer, query processing, response transfer, joins, updates, packet
// multiplex); obtain one from Result.LoadBreakdown.
type Breakdown = analysis.Breakdown

// TrialSummary is Step 4's output: expected loads over repeated instance
// trials with 95% confidence intervals.
type TrialSummary = analysis.TrialSummary

// RunTrials generates and evaluates `trials` independent instances of cfg
// and summarizes the results with 95% confidence intervals. Trials evaluate
// in parallel on GOMAXPROCS workers; the output is bit-identical to a serial
// run (each trial is keyed by its own pre-split RNG stream and the summary
// reduces in trial order).
func RunTrials(cfg Config, prof *Profile, trials int, seed uint64) (*TrialSummary, error) {
	return analysis.RunTrials(cfg, prof, trials, seed)
}

// RunTrialsWorkers is RunTrials with an explicit worker count (0 =
// GOMAXPROCS, 1 = serial). Output is identical at any setting.
func RunTrialsWorkers(cfg Config, prof *Profile, trials int, seed uint64, workers int) (*TrialSummary, error) {
	return analysis.RunTrialsWorkers(cfg, prof, trials, seed, workers)
}

// Goals, Constraints, DesignOptions and Plan parameterize the global design
// procedure of Figure 10.
type (
	Goals         = design.Goals
	Constraints   = design.Constraints
	DesignOptions = design.Options
	Plan          = design.Plan
)

// Design runs the global design procedure: given a network size, a desired
// reach and per-super-peer load limits, it selects cluster size, redundancy,
// outdegree and TTL.
func Design(goals Goals, cons Constraints, opts DesignOptions) (*Plan, error) {
	return design.Run(goals, cons, opts)
}

// PredictTTL returns the TTL to use for a desired reach at an average
// outdegree (rule #4 with the Appendix F adjustment).
func PredictTTL(avgOutdegree float64, reachClusters int) int {
	return design.PredictTTL(avgOutdegree, reachClusters)
}

// MeasureEPL experimentally determines the expected path length for a
// desired reach on power-law topologies (the Figure 9 measurement).
func MeasureEPL(n int, avgOutdegree float64, reach, trials int, seed uint64) (float64, error) {
	return design.MeasureEPL(n, avgOutdegree, reach, trials, stats.NewRNG(seed))
}

// LocalState, Thresholds and Advice implement the Section 5.3 local decision
// rules for one super-peer.
type (
	LocalState = design.LocalState
	Thresholds = design.Thresholds
	Advice     = design.Advice
)

// Advise applies the Section 5.3 guidelines to one super-peer's local state.
func Advise(s LocalState, th Thresholds) Advice { return design.Advise(s, th) }

// SimOptions, AdaptiveOptions and Measured parameterize the discrete-event
// message-level simulator.
type (
	SimOptions       = sim.Options
	AdaptiveOptions  = sim.AdaptiveOptions
	FailureOptions   = sim.FailureOptions
	ContentOptions   = sim.ContentOptions
	AdversaryOptions = sim.AdversaryOptions
	Measured         = sim.Measured
)

// Library generates synthetic file titles and keyword queries over a Zipf
// vocabulary — the corpus behind the simulator's content mode and the
// BuildQueryModel calibration bridge.
type Library = content.Library

// DefaultLibrary returns the calibrated default corpus generator.
func DefaultLibrary() *Library { return content.DefaultLibrary() }

// BuildQueryModel measures each query class's selection power over a
// sampled corpus and returns the matching Appendix B query model.
func BuildQueryModel(lib *Library, seed uint64, corpusFiles int) (*QueryModel, error) {
	return lib.BuildQueryModel(stats.NewRNG(seed), corpusFiles)
}

// Simulate executes the super-peer protocol concretely over an instance on a
// virtual clock, counting every byte and processing unit. With
// SimOptions.Adaptive set it also runs the local decision rules.
func Simulate(inst *Instance, opts SimOptions) (*Measured, error) {
	return sim.Run(inst, opts)
}

// ExperimentParams and ExperimentReport parameterize the paper-evaluation
// harness.
type (
	ExperimentParams = experiments.Params
	ExperimentReport = experiments.Report
)

// ExperimentIDs lists the reproducible paper artifacts (tables and figures).
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitles maps experiment ids to descriptions.
func ExperimentTitles() map[string]string { return experiments.Titles() }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, p ExperimentParams) (*ExperimentReport, error) {
	return experiments.Run(id, p)
}

// FormatReport renders an experiment report as readable text.
func FormatReport(r *ExperimentReport) string { return experiments.Format(r) }

// WriteReportCSV writes a report's tables and series as CSV files under dir
// and returns the paths written.
func WriteReportCSV(r *ExperimentReport, dir string) ([]string, error) {
	return experiments.WriteCSV(r, dir)
}

// ReportCSVStream writes sweep rows to per-stage CSV files incrementally,
// flushing after every row, so interrupted runs keep the sweep points that
// completed. Plug its Row method into ExperimentParams.RowSink.
type ReportCSVStream = experiments.CSVStream

// NewReportCSVStream creates a streaming CSV exporter for the given report
// id under dir.
func NewReportCSVStream(id, dir string) (*ReportCSVStream, error) {
	return experiments.NewCSVStream(id, dir)
}

// Node, NodeOptions, NodeClient and friends are the runnable super-peer
// implementation over TCP: a Node serves clients and peers concurrently,
// maintains an inverted index over its clients' titles, floods keyword
// queries over its overlay links with a TTL, and routes Response messages
// back along the reverse path — the system the paper models, live.
type (
	Node             = p2p.Node
	NodeOptions      = p2p.Options
	MisbehaveOptions = p2p.MisbehaveOptions
	NodeStats        = p2p.Stats
	NodeClient       = p2p.Client
	SharedFile       = p2p.SharedFile
	SearchResult     = p2p.SearchResult
	SearchOutcome    = p2p.SearchOutcome
	NeighborStatus   = p2p.NeighborStatus
)

// Content transfer plane: QueryHits name who has a file; the transfer plane
// actually moves it. A TransferStore holds deterministically generated,
// pre-hashed content a node serves chunk-by-chunk (NodeOptions.Content) under
// its own inflight and bandwidth caps, and Fetch downloads one file from
// several such nodes in parallel — pipelined chunk requests per source,
// per-chunk hash verification against the manifest, seeded retry/backoff,
// reputation-scored source abandonment and resume from a chunk bitmap.
// Every transfer frame is metered as its own load class, so downloads are
// priced side by side with the paper's query/response/join/update taxonomy.
type (
	TransferStore        = transfer.Store
	TransferStoreOptions = transfer.StoreOptions
	TransferFile         = transfer.File
	TransferSource       = transfer.Source
	TransferOptions      = transfer.Options
	TransferResult       = transfer.Result
	TransferProgress     = transfer.Progress
	TransferSourceStats  = transfer.SourceStats
	TransferManifest     = transfer.Manifest
)

// NewTransferStore builds an empty content store; Add titles to it, then hand
// it to one or more nodes via NodeOptions.Content. A single store can back a
// whole fleet serving identical content — the basis of multi-source fetches.
func NewTransferStore(opts TransferStoreOptions) *TransferStore { return transfer.NewStore(opts) }

// Fetch downloads one file from the given sources concurrently and returns
// the verified bytes. Sources usually come from TransferSourcesFor over a
// search's results.
func Fetch(sources []TransferSource, opts TransferOptions) (*TransferResult, error) {
	return transfer.Fetch(sources, opts)
}

// ResumeFetch continues an interrupted download from a prior Result's
// Progress, refetching only the chunks the bitmap is missing.
func ResumeFetch(sources []TransferSource, prev *TransferProgress, opts TransferOptions) (*TransferResult, error) {
	return transfer.Resume(sources, prev, opts)
}

// TransferSourcesFor distills search results into dialable download sources
// for an exact title: every distinct responder that advertised it.
func TransferSourcesFor(results []SearchResult, title string) []TransferSource {
	return p2p.TransferSources(results, title)
}

// TransferContentHash exposes the deterministic content model: the sha256 a
// store-served title of that size always has, so callers can verify a
// completed download end to end without trusting any source.
func TransferContentHash(title string, size int64) [32]byte {
	return transfer.ContentHash(title, size)
}

// TransferWorkload and TransferPrediction parameterize PredictTransfer, the
// analytical price of a download: exact wire bytes (chunk framing included),
// protocol efficiency, and the rate-cap throughput/duration bound.
type (
	TransferWorkload   = analysis.TransferWorkload
	TransferPrediction = analysis.TransferPrediction
)

// PredictTransfer prices a chunked multi-source download analytically, the
// same way Evaluate prices query traffic.
func PredictTransfer(w TransferWorkload) (*TransferPrediction, error) {
	return analysis.PredictTransfer(w)
}

// ClientDialOptions and ClientEvent configure a supervised client: a ranked
// list of redundant partner super-peers (the paper's k-redundancy),
// exponential backoff with seeded jitter, automatic re-join after failover,
// and an event stream for observing recovery.
type (
	ClientDialOptions = p2p.DialOptions
	ClientEvent       = p2p.Event
	ClientEventType   = p2p.EventType
)

// Backoff is the one redial schedule the supervised client, Fetch and the
// fleet controller share: attempt n ≥ 1 waits Initial·2^(n-1) with ±20 %
// seeded jitter, capped at Max.
type Backoff = link.Backoff

// Client failover events, in the order a recovery emits them.
const (
	EventConnLost    = p2p.EventConnLost
	EventBackoff     = p2p.EventBackoff
	EventDialFailed  = p2p.EventDialFailed
	EventReconnected = p2p.EventReconnected
	EventRejoined    = p2p.EventRejoined
	EventGaveUp      = p2p.EventGaveUp
)

// NewNode creates a super-peer; call its Listen method to start serving.
func NewNode(opts NodeOptions) *Node { return p2p.NewNode(opts) }

// DialSuperPeer connects as a client to a running super-peer and joins with
// the given shared collection.
func DialSuperPeer(addr string, files []SharedFile) (*NodeClient, error) {
	return p2p.DialClient(addr, files)
}

// DialSuperPeers connects as a supervised client with failover across a
// ranked super-peer list.
func DialSuperPeers(opts ClientDialOptions, files []SharedFile) (*NodeClient, error) {
	return p2p.DialClientOptions(opts, files)
}

// FaultController, FaultRule and FailureSchedule are the deterministic fault
// injection layer: a seeded controller that wraps live connections to inject
// message drop, delay, truncation, connection resets and partitions, plus
// shared failure schedules that replay identically in the simulator
// (FailureOptions.Schedule) and against live networks.
type (
	FaultController = faults.Controller
	FaultRule       = faults.Rule
	FailureSchedule = faults.Schedule
	PartnerFailure  = faults.PartnerFailure
)

// ExponentialFailureSchedule draws a reproducible failure schedule with
// exponentially distributed inter-failure gaps (mean mtbf) for every partner
// of every cluster over the given duration.
func ExponentialFailureSchedule(seed uint64, clusters, partners int, mtbf, duration float64) FailureSchedule {
	return faults.ExponentialSchedule(seed, clusters, partners, mtbf, duration)
}

// LiveNetwork runs a real super-peer network on loopback and orchestrates
// churn against it: killing and restarting super-peers, partitioning
// clusters, and injecting link faults through its FaultController.
type (
	LiveNetwork = network.Live
	LiveConfig  = network.LiveConfig
)

// NewLiveNetwork builds the live churn harness; call its Launch method to
// boot the network.
func NewLiveNetwork(cfg LiveConfig) *LiveNetwork { return network.NewLive(cfg) }

// Metrics types: every live node carries a dependency-free metrics registry
// whose counters attribute each byte and message to the paper's Table 2 load
// taxonomy — {query, response, join, update, busy, ping} × {in, out} — with
// hot-path updates that are atomic and allocation-free. The simulator and
// the analytical model emit the same series names, so the three layers'
// measurements are directly comparable.
type (
	MetricsRegistry = metrics.Registry
	NodeMetrics     = metrics.NodeMetrics
	LoadByClass     = metrics.ByClass
	MessageClass    = metrics.Class
	MessageDir      = metrics.Dir
	SuperPeerInfo   = network.SuperPeerInfo
)

// TelemetryHandler serves a registry over HTTP: Prometheus text format on
// /metrics, expvar JSON on /debug/vars, and the net/http/pprof profiles on
// /debug/pprof/. spnet-node's -telemetry flag and LiveConfig.Telemetry use
// this same handler.
func TelemetryHandler(reg *MetricsRegistry) http.Handler { return metrics.Handler(reg) }

// Fleet control plane: a FleetController scrapes every super-peer's
// telemetry, watches their control links, and pushes the Section 5.3 local
// decision rules to live nodes as epoch-versioned idempotent directives —
// partner promotion on death or re-registration storms, cluster split on
// sustained overload, coalesce on underload, TTL decay under bandwidth
// pressure. Nodes keep serving on their last-applied configuration whenever
// the controller is unreachable, and a restarted controller rebuilds its
// epoch watermark from the fleet's Register announcements.
type (
	FleetController = control.Controller
	FleetOptions    = control.Options
	FleetNodeConfig = control.NodeConfig
	FleetEvent      = control.Event
	FleetEventType  = control.EventType
	FleetNodeStatus = control.NodeStatus
)

// Fleet controller events, in rough lifecycle order.
const (
	FleetRegistered   = control.EvRegistered
	FleetDeregistered = control.EvDeregistered
	FleetLinkDown     = control.EvLinkDown
	FleetScrapeFailed = control.EvScrapeFailed
	FleetDead         = control.EvDead
	FleetRecovered    = control.EvRecovered
	FleetPushed       = control.EvPushed
	FleetAcked        = control.EvAcked
	FleetPushFailed   = control.EvPushFailed
	FleetHotspot      = control.EvHotspot
	FleetUnderload    = control.EvUnderload
)

// NewFleetController builds a controller over the given fleet; call Start to
// launch its control links and decision loop, Close to stop it.
func NewFleetController(opts FleetOptions) *FleetController { return control.New(opts) }
