// Package network generates super-peer network instances: Step 1 of the
// paper's evaluation model (Section 4.1). A configuration (Table 1) is
// turned into a concrete instance — an overlay graph whose nodes are
// clusters, each cluster holding one super-peer (or a 2-redundant virtual
// super-peer) plus its clients, with per-peer file counts and session
// lifespans drawn from the workload profile.
package network

import "fmt"

// GraphType selects the overlay topology (Table 1, "Graph Type").
type GraphType int

// Supported graph types.
const (
	// Strong is the strongly connected (complete) super-peer overlay,
	// studied as the best case for result quality and bandwidth.
	Strong GraphType = iota
	// PowerLaw is a PLOD-generated power-law overlay, reflecting the
	// measured Gnutella topology.
	PowerLaw
)

func (t GraphType) String() string {
	switch t {
	case Strong:
		return "strong"
	case PowerLaw:
		return "power-law"
	}
	return fmt.Sprintf("GraphType(%d)", int(t))
}

// Config is the paper's Table 1: the parameters describing both the topology
// of the network and user behavior.
type Config struct {
	// GraphType is the overlay type: Strong or PowerLaw.
	GraphType GraphType
	// GraphSize is the number of peers in the network (default 10000).
	GraphSize int
	// ClusterSize is the number of nodes per cluster, including the
	// super-peer itself (default 10). A pure P2P network is the degenerate
	// case ClusterSize = 1.
	ClusterSize int
	// KRedundancy is k, the number of partners per "virtual" super-peer
	// (Section 3.2); 0 means 1, no redundancy. The paper introduces
	// k-redundancy for general k but evaluates only k = 2 because the
	// number of super-peer connections grows as k²; general k is provided
	// as an extension (see the kredundancy experiment).
	KRedundancy int
	// AvgOutdegree is the suggested average outdegree of a super-peer
	// (default 3.1, the measured Gnutella average). Ignored for Strong
	// graphs, where outdegree is the number of clusters minus one.
	AvgOutdegree float64
	// TTL is the time-to-live of query messages (default 7).
	TTL int
}

// DefaultConfig returns the Table 1 defaults: a power-law network of 10000
// peers, cluster size 10, no redundancy, average outdegree 3.1, TTL 7.
func DefaultConfig() Config {
	return Config{
		GraphType:    PowerLaw,
		GraphSize:    10000,
		ClusterSize:  10,
		AvgOutdegree: 3.1,
		TTL:          7,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.GraphSize <= 0 {
		return fmt.Errorf("network: GraphSize = %d, want > 0", c.GraphSize)
	}
	if c.ClusterSize <= 0 || c.ClusterSize > c.GraphSize {
		return fmt.Errorf("network: ClusterSize = %d, want [1, GraphSize=%d]", c.ClusterSize, c.GraphSize)
	}
	if c.KRedundancy < 0 {
		return fmt.Errorf("network: KRedundancy = %d, want >= 0", c.KRedundancy)
	}
	if k := c.Partners(); c.ClusterSize < k {
		return fmt.Errorf("network: %d-redundancy needs ClusterSize >= %d, got %d", k, k, c.ClusterSize)
	}
	if c.TTL < 0 {
		return fmt.Errorf("network: TTL = %d, want >= 0", c.TTL)
	}
	switch c.GraphType {
	case Strong:
	case PowerLaw:
		n := c.NumClusters()
		if n > 1 {
			if c.AvgOutdegree < 1 {
				return fmt.Errorf("network: AvgOutdegree = %v, want >= 1", c.AvgOutdegree)
			}
			if c.AvgOutdegree > float64(n-1) {
				return fmt.Errorf("network: AvgOutdegree = %v exceeds clusters-1 = %d", c.AvgOutdegree, n-1)
			}
		}
	default:
		return fmt.Errorf("network: unknown graph type %d", c.GraphType)
	}
	return nil
}

// NumClusters returns the number of clusters, n = GraphSize / ClusterSize
// (Section 4.1, Step 1).
func (c Config) NumClusters() int {
	n := c.GraphSize / c.ClusterSize
	if n < 1 {
		n = 1
	}
	return n
}

// MeanClients returns the mean number of clients per cluster, c̄:
// ClusterSize minus the number of partners the virtual super-peer consumes.
func (c Config) MeanClients() float64 {
	return float64(c.ClusterSize - c.Partners())
}

// Partners returns k, the number of super-peer partners per cluster.
func (c Config) Partners() int {
	if c.KRedundancy >= 1 {
		return c.KRedundancy
	}
	return 1
}

// Redundant reports whether the virtual super-peers have more than one
// partner.
func (c Config) Redundant() bool { return c.Partners() > 1 }

func (c Config) String() string {
	red := "no"
	if k := c.Partners(); k > 1 {
		red = fmt.Sprintf("%d-redundant", k)
	}
	return fmt.Sprintf("%v graph, %d peers, cluster %d (%s), outdeg %.1f, TTL %d",
		c.GraphType, c.GraphSize, c.ClusterSize, red, c.AvgOutdegree, c.TTL)
}
