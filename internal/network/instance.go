package network

import (
	"fmt"

	"spnet/internal/stats"
	"spnet/internal/topology"
	"spnet/internal/workload"
)

// Peer is one participant: a client or a super-peer partner. Every peer owns
// a collection of files and has a session lifespan, both drawn from the
// measured distributions (Section 4.1, Step 1).
type Peer struct {
	// Files is the number of files in the peer's shared collection.
	Files int
	// Lifespan is the peer's session length in seconds; the peer's join
	// rate is its inverse ("the rate at which nodes join the system is the
	// inverse of the length of time they remain logged in").
	Lifespan float64
}

// Cluster is a super-peer (or 2-redundant virtual super-peer) together with
// its clients.
type Cluster struct {
	// Partners holds the super-peer(s): one entry normally, two with
	// redundancy. Every partner indexes all clients' files plus every
	// partner's own files.
	Partners []Peer
	// Clients are the cluster's client peers.
	Clients []Peer

	// IndexFiles is x_tot: the total number of files in the (virtual)
	// super-peer's index — all clients plus all partners.
	IndexFiles int
	// ExpResults is E[N_T | I]: expected results this cluster returns per
	// random query (Appendix B, eq. 5).
	ExpResults float64
	// ExpAddrs is E[K_T | I]: expected number of collections producing at
	// least one result, i.e. the expected address count in a Response
	// (Appendix B, eq. 6).
	ExpAddrs float64
	// ProbResp is the probability the cluster responds at all — the
	// expected number of Response messages it originates per query.
	ProbResp float64
}

// Users returns the number of query-submitting users in the cluster:
// clients plus super-peer partners (super-peers submit and answer queries
// "on behalf of their clients and themselves").
func (c *Cluster) Users() int { return len(c.Clients) + len(c.Partners) }

// Instance is one realized network: Step 1's output. Node v of Graph is
// cluster Clusters[v].
type Instance struct {
	Config   Config
	Profile  *workload.Profile
	Graph    topology.Graph
	Clusters []Cluster
	// NumPeers is the realized peer count (client draws are stochastic, so
	// it differs slightly from Config.GraphSize).
	NumPeers int
}

// Generate realizes a configuration into an instance using the given
// workload profile (nil selects the default profile) and RNG.
func Generate(cfg Config, prof *workload.Profile, rng *stats.RNG) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prof == nil {
		prof = workload.DefaultProfile()
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}

	n := cfg.NumClusters()
	var g topology.Graph
	switch cfg.GraphType {
	case Strong:
		g = topology.NewClique(n)
	case PowerLaw:
		if n == 1 {
			g = topology.NewClique(1)
		} else {
			pg, err := topology.PowerLaw(topology.PLODParams{
				N:      n,
				AvgDeg: cfg.AvgOutdegree,
				Alpha:  cfg.PLODAlpha,
			}, rng.Split(1))
			if err != nil {
				return nil, fmt.Errorf("network: generating topology: %w", err)
			}
			g = pg
		}
	default:
		return nil, fmt.Errorf("network: unknown graph type %d", cfg.GraphType)
	}

	inst := &Instance{
		Config:   cfg,
		Profile:  prof,
		Graph:    g,
		Clusters: make([]Cluster, n),
	}
	peerRNG := rng.Split(2)
	clientDist := stats.Normal{Mean: cfg.MeanClients(), StdDev: 0.2 * cfg.MeanClients()}
	samplePeer := func() Peer {
		return Peer{
			Files:    prof.Files.Sample(peerRNG),
			Lifespan: prof.Lifespans.Sample(peerRNG),
		}
	}
	// Peers draw their file counts from a few hundred distinct values, and
	// ProbAnyResult is a sum of one pow per query class: price each count
	// once. The table lives for this call only, so it is never shared.
	probAny := probAnyMemo{qm: prof.Queries, byFiles: make(map[int]float64)}
	for v := range inst.Clusters {
		cl := &inst.Clusters[v]
		cl.Partners = make([]Peer, cfg.Partners())
		for i := range cl.Partners {
			cl.Partners[i] = samplePeer()
		}
		// C ~ N(c̄, .2c̄), clamped to a non-negative integer (Step 1).
		numClients := clientDist.SampleNonNegInt(peerRNG, 0)
		cl.Clients = make([]Peer, numClients)
		for i := range cl.Clients {
			cl.Clients[i] = samplePeer()
		}
		inst.NumPeers += len(cl.Partners) + len(cl.Clients)
		cl.computeQueryExpectations(&probAny)
	}
	return inst, nil
}

// Planted describes an exactly-known instance: the small networks the
// three-way experiments price with the model, run in the simulator and boot as
// a live fleet over one and the same Graph. Every cluster holds Partners
// fileless super-peer partners and Clients clients sharing one file each;
// content is split into Topics equally popular topics, one per cluster, so a
// query matches a cluster's index with probability 1/Topics and then returns
// all Clients files (Topics = 1: every file matches every query; Topics =
// Graph.N(): topic-partitioned content). Nobody leaves and nothing updates,
// which is what one-shot live joins look like to the model.
type Planted struct {
	Graph    topology.Graph
	Partners int
	Clients  int
	Topics   int
	// QueryRate is each user's queries per second, QueryLen the query
	// string's length in bytes, TTL the query time-to-live.
	QueryRate float64
	QueryLen  int
	TTL       int
}

// plantedLifespan is a session so long, in seconds, that the join rate it
// implies (its inverse) is zero for every purpose.
const plantedLifespan = 1e12

// NewPlanted builds the instance p describes. Unlike Generate it draws
// nothing: the same description always gives the same instance.
func NewPlanted(p Planted) (*Instance, error) {
	if p.Graph == nil || p.Partners < 1 || p.Clients < 0 || p.Topics < 1 {
		return nil, fmt.Errorf("network: planted instance needs a graph, >= 1 partner and >= 1 topic: %+v", p)
	}
	qm, err := workload.NewQueryModel([]float64{1}, []float64{1})
	if err != nil {
		return nil, err
	}
	n := p.Graph.N()
	size := p.Partners + p.Clients
	clusters := make([]Cluster, n)
	for v := range clusters {
		cl := Cluster{
			Partners:   make([]Peer, p.Partners),
			Clients:    make([]Peer, p.Clients),
			IndexFiles: p.Clients,
			ExpResults: float64(p.Clients) / float64(p.Topics),
			ExpAddrs:   float64(p.Clients) / float64(p.Topics),
			ProbResp:   1 / float64(p.Topics),
		}
		for i := range cl.Partners {
			cl.Partners[i] = Peer{Lifespan: plantedLifespan}
		}
		for i := range cl.Clients {
			cl.Clients[i] = Peer{Files: 1, Lifespan: plantedLifespan}
		}
		clusters[v] = cl
	}
	graphType := PowerLaw
	if p.Graph.IsClique() {
		graphType = Strong
	}
	return &Instance{
		Config: Config{
			GraphType:   graphType,
			GraphSize:   n * size,
			ClusterSize: size,
			KRedundancy: p.Partners,
			TTL:         p.TTL,
		},
		Profile: &workload.Profile{
			Queries:  qm,
			Rates:    workload.Rates{QueryRate: p.QueryRate},
			QueryLen: p.QueryLen,
		},
		Graph:    p.Graph,
		Clusters: clusters,
		NumPeers: n * size,
	}, nil
}

// probAnyMemo is QueryModel.ProbAnyResult remembered by collection size: the
// same pure function, so the same bits.
type probAnyMemo struct {
	qm      *workload.QueryModel
	byFiles map[int]float64
}

func (m *probAnyMemo) prob(files int) float64 {
	p, ok := m.byFiles[files]
	if !ok {
		p = m.qm.ProbAnyResult(files)
		m.byFiles[files] = p
	}
	return p
}

// computeQueryExpectations fills the cluster's Appendix B quantities. ExpAddrs
// is QueryModel.ExpectedMatchingClients over the partners' then the clients'
// collections, summed in that order.
func (c *Cluster) computeQueryExpectations(probAny *probAnyMemo) {
	total := 0
	var addrs float64
	for _, p := range c.Partners {
		addrs += probAny.prob(p.Files)
		total += p.Files
	}
	for _, p := range c.Clients {
		addrs += probAny.prob(p.Files)
		total += p.Files
	}
	c.IndexFiles = total
	c.ExpResults = probAny.qm.ExpectedResults(total)
	c.ExpAddrs = addrs
	c.ProbResp = probAny.qm.ProbAnyResult(total) // index totals rarely repeat
}

// SuperPeerConns returns the number of open connections one super-peer
// partner of cluster v maintains: its clients, one connection per neighbor
// partner (k·outdegree when every cluster is k-redundant, since "neighbors
// must be connected to each one of the partners"), and the k-1 co-partner
// links — the k² connection growth the paper cautions about.
func (inst *Instance) SuperPeerConns(v int) int {
	cl := &inst.Clusters[v]
	deg := inst.Graph.Degree(v)
	k := inst.Config.Partners()
	return len(cl.Clients) + deg*k + (k - 1)
}

// ClientConns returns the number of open connections a client maintains:
// one per partner super-peer.
func (inst *Instance) ClientConns() int { return inst.Config.Partners() }

// TotalFiles returns the total number of files shared across all clusters.
func (inst *Instance) TotalFiles() int {
	total := 0
	for i := range inst.Clusters {
		total += inst.Clusters[i].IndexFiles
	}
	return total
}

// NodeID identifies one peer in the instance for per-node load reporting.
type NodeID struct {
	// Cluster is the cluster (graph node) index.
	Cluster int
	// Partner is the partner index for super-peers, -1 for clients.
	Partner int
	// Client is the client index within the cluster, -1 for super-peers.
	Client int
}

// IsSuperPeer reports whether the node is a super-peer partner.
func (id NodeID) IsSuperPeer() bool { return id.Partner >= 0 }

// ForEachNode visits every peer in the instance in a deterministic order
// (clusters ascending; partners before clients).
func (inst *Instance) ForEachNode(visit func(id NodeID, p Peer)) {
	for v := range inst.Clusters {
		cl := &inst.Clusters[v]
		for i, p := range cl.Partners {
			visit(NodeID{Cluster: v, Partner: i, Client: -1}, p)
		}
		for i, p := range cl.Clients {
			visit(NodeID{Cluster: v, Partner: -1, Client: i}, p)
		}
	}
}
