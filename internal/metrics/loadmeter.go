package metrics

// Class is one component of the paper's Table 2 load taxonomy: the kind of
// protocol work a byte or message is attributed to.
type Class uint8

// Load taxonomy classes. Query and Response are the Table 2 query-transfer
// and response-transfer components; Join and Update are the Section 3.2
// metadata actions; Busy is overload shedding and Ping the liveness
// heartbeat (both live-stack additions with no analytical counterpart).
// Transfer is the content download plane (ChunkRequest/ChunkData/ChunkNack):
// the traffic a QueryHit exists to set up, priced as its own class because
// the paper's cost model stops at the hit.
const (
	ClassQuery Class = iota
	ClassResponse
	ClassJoin
	ClassUpdate
	ClassBusy
	ClassPing
	ClassTransfer
	ClassOther

	// NumClasses is the number of taxonomy classes.
	NumClasses = int(ClassOther) + 1
)

var classNames = [NumClasses]string{"query", "response", "join", "update", "busy", "ping", "transfer", "other"}

func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return "other"
}

// Dir is a traffic direction relative to the node being measured.
type Dir uint8

// Directions.
const (
	DirIn Dir = iota
	DirOut

	// NumDirs is the number of directions.
	NumDirs = 2
)

func (d Dir) String() string {
	if d == DirIn {
		return "in"
	}
	return "out"
}

// ByClass is a class × direction matrix of float totals — the value type the
// analysis engine and simulator use to report per-class load alongside the
// live meters.
type ByClass [NumClasses][NumDirs]float64

// Add accumulates v into (c, d).
func (b *ByClass) Add(c Class, d Dir, v float64) { b[c][d] += v }

// Get returns the (c, d) cell.
func (b ByClass) Get(c Class, d Dir) float64 { return b[c][d] }

// Merge adds every cell of o into b.
func (b *ByClass) Merge(o ByClass) {
	for c := range b {
		for d := range b[c] {
			b[c][d] += o[c][d]
		}
	}
}

// Scale returns a copy of b with every cell multiplied by k.
func (b ByClass) Scale(k float64) ByClass {
	for c := range b {
		for d := range b[c] {
			b[c][d] *= k
		}
	}
	return b
}

// Sum returns the total over the given classes in direction d.
func (b ByClass) Sum(d Dir, classes ...Class) float64 {
	t := 0.0
	for _, c := range classes {
		t += b[c][d]
	}
	return t
}

// Total returns the grand total over all classes and directions.
func (b ByClass) Total() float64 {
	t := 0.0
	for c := range b {
		for d := range b[c] {
			t += b[c][d]
		}
	}
	return t
}

// Canonical metric names shared by live nodes, the simulator exporter and
// scrapers. DESIGN.md maps them onto the Table 2 load components.
const (
	// MetricMessages counts protocol messages by taxonomy class and
	// direction.
	MetricMessages = "spnet_messages_total"
	// MetricMessageBytes counts model wire bytes (message payload plus the
	// fixed per-message frame overhead of the cost model) by class and
	// direction — the measured counterpart of the Table 2 bandwidth terms.
	MetricMessageBytes = "spnet_message_bytes_total"
	// MetricConnBytes counts raw socket bytes by direction (framing,
	// handshakes and all).
	MetricConnBytes = "spnet_conn_bytes_total"
	// MetricConnsOpen gauges currently open client + peer connections.
	MetricConnsOpen = "spnet_connections_open"
	// MetricProcUnits accumulates executed processing cost in Table 2 model
	// units (multiply by cost.CyclesPerUnit for Hz).
	MetricProcUnits = "spnet_processing_units_total"
	// MetricQueriesHandled counts queries a super-peer fully serviced.
	MetricQueriesHandled = "spnet_queries_handled_total"
	// MetricQueriesShed counts queries dropped by the overload ladder,
	// labeled by reason and source class.
	MetricQueriesShed = "spnet_queries_shed_total"
	// MetricQueriesForwarded counts query copies forwarded to neighbor
	// super-peers, labeled by routing strategy.
	MetricQueriesForwarded = "spnet_queries_forwarded_total"
	// MetricBusyReceived counts Busy notices received from neighbors.
	MetricBusyReceived = "spnet_busy_received_total"
	// MetricQueryService is the histogram of query service times in seconds.
	MetricQueryService = "spnet_query_service_seconds"
	// MetricHitsDropped counts QueryHits the node refused to relay, labeled
	// by reason: "unsolicited" (no matching outstanding query route) or
	// "forged" (failed trust validation).
	MetricHitsDropped = "spnet_query_hits_dropped_total"
	// MetricPeerReputation gauges the beta-posterior reliability score of
	// each neighbor super-peer link, labeled by peer id. Present while the
	// link is up, when trust-aware mode is on.
	MetricPeerReputation = "spnet_peer_reputation"
	// MetricControlDirectives counts control-plane directives received from a
	// fleet controller, labeled by result: "applied" or "stale" (epoch at or
	// below the last applied one — the idempotent reject).
	MetricControlDirectives = "spnet_control_directives_total"
	// MetricTransferBytes counts verified content payload bytes moved by the
	// transfer plane, by direction. Distinct from the ClassTransfer cells of
	// spnet_message_bytes_total, which charge full wire size (headers, nacks,
	// retried and forged chunks included): the ratio of the two is the
	// transfer plane's wire efficiency.
	MetricTransferBytes = "spnet_transfer_bytes_total"
	// MetricChunksRetried counts chunk fetches re-issued after a timeout,
	// nack, or source failure.
	MetricChunksRetried = "spnet_transfer_chunks_retried_total"
	// MetricChunksForged counts chunks rejected because their bytes did not
	// hash to the manifest entry — the transfer-plane analog of forged
	// QueryHits, debited against the source through internal/trust.
	MetricChunksForged = "spnet_transfer_chunks_forged_total"
	// MetricTransferThroughput is the per-completed-download content
	// throughput histogram in bytes per second.
	MetricTransferThroughput = "spnet_transfer_throughput_bps"
)

// LoadMeter attributes messages and bytes to the load taxonomy. It is the
// "Meter" of the observability subsystem: the p2p codec paths call Observe
// for every message written or read, and the same cells back the
// spnet_messages_total / spnet_message_bytes_total families.
type LoadMeter struct {
	msgs  [NumClasses][NumDirs]Counter
	bytes [NumClasses][NumDirs]Counter
}

// Observe records one message of wireBytes model bytes in class c,
// direction d. Allocation-free.
func (m *LoadMeter) Observe(c Class, d Dir, wireBytes int) {
	m.msgs[c][d].Inc()
	m.bytes[c][d].Add(int64(wireBytes))
}

// Messages returns the message count for (c, d).
func (m *LoadMeter) Messages(c Class, d Dir) int64 { return m.msgs[c][d].Value() }

// Bytes returns the byte total for (c, d).
func (m *LoadMeter) Bytes(c Class, d Dir) int64 { return m.bytes[c][d].Value() }

// BytesByClass snapshots the byte totals as a ByClass matrix.
func (m *LoadMeter) BytesByClass() ByClass {
	var b ByClass
	for c := 0; c < NumClasses; c++ {
		for d := 0; d < NumDirs; d++ {
			b[c][d] = float64(m.bytes[c][d].Value())
		}
	}
	return b
}

// Register exposes the meter's cells on r under the canonical family names,
// class-major then direction, so exposition order is deterministic.
func (m *LoadMeter) Register(r *Registry) {
	for c := 0; c < NumClasses; c++ {
		for d := 0; d < NumDirs; d++ {
			cc, dd := Class(c), Dir(d)
			labels := []Label{{"type", cc.String()}, {"dir", dd.String()}}
			r.CounterFunc(MetricMessages, "Protocol messages by load taxonomy class and direction.",
				func() float64 { return float64(m.msgs[cc][dd].Value()) }, labels...)
		}
	}
	for c := 0; c < NumClasses; c++ {
		for d := 0; d < NumDirs; d++ {
			cc, dd := Class(c), Dir(d)
			labels := []Label{{"type", cc.String()}, {"dir", dd.String()}}
			r.CounterFunc(MetricMessageBytes, "Model wire bytes (incl. frame overhead) by class and direction.",
				func() float64 { return float64(m.bytes[cc][dd].Value()) }, labels...)
		}
	}
}

// ShedReason labels why the overload ladder dropped a query.
type ShedReason uint8

// Shed reasons, in ladder order: the per-client token bucket, the per-conn
// inflight cap, the bounded dispatch queue, and the trust-aware admission
// cap that bounds how much of the queue a low-reputation overlay partner
// may occupy.
const (
	ShedRateLimit ShedReason = iota
	ShedInflight
	ShedQueue
	ShedAdmission

	numShedReasons = 4
)

var shedReasonNames = [numShedReasons]string{"rate_limit", "inflight", "queue_full", "admission"}

func (s ShedReason) String() string {
	if int(s) < numShedReasons {
		return shedReasonNames[s]
	}
	return "other"
}

// Source labels where a query entered the node: a local client leg or a
// forwarded query from a neighbor super-peer.
type Source uint8

// Query source classes.
const (
	SourceClient Source = iota
	SourcePeer

	numSources = 2
)

var sourceNames = [numSources]string{"client", "peer"}

func (s Source) String() string {
	if int(s) < numSources {
		return sourceNames[s]
	}
	return "other"
}

// NodeMetrics is the standard per-node metric set: one registry holding the
// load meter, raw connection byte counters, the open-connection gauge,
// executed processing units, query outcome counters split by shed reason and
// source class, and the query service-time histogram. Live super-peers own
// one each.
type NodeMetrics struct {
	reg *Registry

	// Load attributes every codec message to class × direction.
	Load *LoadMeter
	// ConnBytes counts raw socket bytes, indexed by Dir.
	ConnBytes [NumDirs]*Counter
	// ConnsOpen gauges open client + peer connections.
	ConnsOpen *Gauge
	// ProcUnits accumulates executed Table 2 processing units.
	ProcUnits *FloatCounter
	// QueriesHandled counts fully serviced queries.
	QueriesHandled *Counter
	// Shed counts dropped queries by [reason][source].
	Shed [numShedReasons][numSources]*Counter
	// BusyReceived counts Busy notices from neighbors.
	BusyReceived *Counter
	// HitsUnsolicited counts QueryHits dropped because no outstanding query
	// route matched their GUID.
	HitsUnsolicited *Counter
	// HitsForged counts QueryHits dropped by trust validation (no dialable
	// responder behind any claimed result).
	HitsForged *Counter
	// QueryService is the query service-time histogram (seconds).
	QueryService *Histogram
	// QueriesForwarded counts query copies sent on to neighbor super-peers.
	// It carries the routing strategy as a label, so it is registered by
	// InitForwarded once the strategy is known, and is nil until then.
	QueriesForwarded *Counter
	// DirectivesApplied / DirectivesStale count control-plane directives by
	// outcome: applied, or rejected as stale by the epoch idempotency rule.
	DirectivesApplied *Counter
	DirectivesStale   *Counter
	// TransferBytes counts verified content payload bytes by direction:
	// DirOut on serving nodes, DirIn on downloaders.
	TransferBytes [NumDirs]*Counter
	// ChunksRetried counts chunk fetches re-issued after timeout/nack/death.
	ChunksRetried *Counter
	// ChunksForged counts hash-mismatched chunks rejected by the downloader.
	ChunksForged *Counter
	// TransferThroughput is the per-download content throughput histogram
	// (bytes per second), observed once per completed download.
	TransferThroughput *Histogram
}

// NewNodeMetrics builds a node metric set on a fresh registry.
func NewNodeMetrics() *NodeMetrics {
	r := NewRegistry()
	nm := &NodeMetrics{reg: r, Load: new(LoadMeter)}
	nm.Load.Register(r)
	for d := 0; d < NumDirs; d++ {
		nm.ConnBytes[d] = r.Counter(MetricConnBytes, "Raw socket bytes by direction.",
			Label{"dir", Dir(d).String()})
	}
	nm.ConnsOpen = r.Gauge(MetricConnsOpen, "Open client and peer connections.")
	nm.ProcUnits = r.FloatCounter(MetricProcUnits, "Executed processing cost in Table 2 model units.")
	nm.QueriesHandled = r.Counter(MetricQueriesHandled, "Queries fully serviced by this node.")
	for reason := 0; reason < numShedReasons; reason++ {
		for src := 0; src < numSources; src++ {
			nm.Shed[reason][src] = r.Counter(MetricQueriesShed, "Queries dropped by the overload ladder, by reason and source class.",
				Label{"reason", ShedReason(reason).String()}, Label{"source", Source(src).String()})
		}
	}
	nm.BusyReceived = r.Counter(MetricBusyReceived, "Busy notices received from neighbors.")
	nm.HitsUnsolicited = r.Counter(MetricHitsDropped, "QueryHits refused relay, by reason.",
		Label{"reason", "unsolicited"})
	nm.HitsForged = r.Counter(MetricHitsDropped, "QueryHits refused relay, by reason.",
		Label{"reason", "forged"})
	nm.QueryService = r.Histogram(MetricQueryService, "Query service time in seconds.", DefLatencyBuckets)
	nm.DirectivesApplied = r.Counter(MetricControlDirectives, "Control-plane directives by outcome.",
		Label{"result", "applied"})
	nm.DirectivesStale = r.Counter(MetricControlDirectives, "Control-plane directives by outcome.",
		Label{"result", "stale"})
	for d := 0; d < NumDirs; d++ {
		nm.TransferBytes[d] = r.Counter(MetricTransferBytes, "Verified content payload bytes by direction.",
			Label{"dir", Dir(d).String()})
	}
	nm.ChunksRetried = r.Counter(MetricChunksRetried, "Chunk fetches re-issued after timeout, nack or source failure.")
	nm.ChunksForged = r.Counter(MetricChunksForged, "Hash-mismatched chunks rejected by the downloader.")
	nm.TransferThroughput = r.Histogram(MetricTransferThroughput, "Per-download content throughput in bytes per second.", DefThroughputBuckets)
	return nm
}

// InitForwarded registers the forwarded-query counter under the given
// routing-strategy label. Call exactly once, during node setup before any
// traffic is served; the registry rejects duplicate registration.
func (nm *NodeMetrics) InitForwarded(strategy string) {
	nm.QueriesForwarded = nm.reg.Counter(MetricQueriesForwarded,
		"Query copies forwarded to neighbor super-peers, by routing strategy.",
		Label{"strategy", strategy})
}

// Registry returns the registry backing this metric set.
func (nm *NodeMetrics) Registry() *Registry { return nm.reg }

// ShedTotal sums shed queries across all reasons for one source class.
func (nm *NodeMetrics) ShedTotal(src Source) int64 {
	t := int64(0)
	for reason := 0; reason < numShedReasons; reason++ {
		t += nm.Shed[reason][src].Value()
	}
	return t
}
