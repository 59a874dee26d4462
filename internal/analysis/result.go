package analysis

import (
	"spnet/internal/metrics"
	"spnet/internal/network"
)

// SuperPeerLoad returns the expected load of one super-peer partner of
// cluster v. With 2-redundancy the query-path load is split evenly between
// the partners (clients and neighbors round-robin across them) while join
// and update traffic is borne in full by each partner; without redundancy
// the single super-peer carries everything.
func (r *Result) SuperPeerLoad(v int) Load {
	raw := r.spShared[v]
	raw.scale(1 / float64(r.Inst.Config.Partners()))
	raw.add(r.spPerPartner[v])
	return raw.finalize(r.Inst.SuperPeerConns(v))
}

// SuperPeerClassBps returns the expected per-partner bandwidth of one
// super-peer partner of cluster v broken down by Table 2 taxonomy class and
// direction, in bits per second — the analytical counterpart of the
// spnet_message_bytes_total series live nodes and the simulator emit. The
// class cells sum to SuperPeerLoad(v)'s InBps/OutBps.
func (r *Result) SuperPeerClassBps(v int) metrics.ByClass {
	cls := r.spSharedCls[v].Scale(1 / float64(r.Inst.Config.Partners()))
	cls.Merge(r.spPerPartnerCls[v])
	return cls.Scale(8)
}

// ClientLoad returns the expected load of client i of cluster v.
func (r *Result) ClientLoad(v, i int) Load {
	raw := r.clientBase[v]
	raw.add(r.clientJoins(v)[i])
	return raw.finalize(r.Inst.ClientConns())
}

// clientJoins returns the join components of cluster v's clients.
func (r *Result) clientJoins(v int) []rawLoad {
	return r.clientJoin[r.clientOff[v]:r.clientOff[v+1]]
}

// AggregateLoad returns E[M | I] (eq. 4): the sum of the loads of every node
// in the system — all partners of all clusters plus all clients.
func (r *Result) AggregateLoad() Load {
	var total Load
	partners := float64(r.Inst.Config.Partners())
	for v := range r.Inst.Clusters {
		total = total.Add(r.SuperPeerLoad(v).Scale(partners))
		for i := range r.Inst.Clusters[v].Clients {
			total = total.Add(r.ClientLoad(v, i))
		}
	}
	return total
}

// MeanSuperPeerLoad returns E[M_Q] (eq. 3) for Q = the set of super-peer
// partners: the mean per-partner load.
func (r *Result) MeanSuperPeerLoad() Load {
	var sum Load
	n := len(r.Inst.Clusters)
	if n == 0 {
		return sum
	}
	for v := 0; v < n; v++ {
		sum = sum.Add(r.SuperPeerLoad(v))
	}
	return sum.Scale(1 / float64(n))
}

// MeanClientLoad returns E[M_Q] (eq. 3) for Q = the set of clients. The
// zero Load is returned when the instance has no clients.
func (r *Result) MeanClientLoad() Load {
	var sum Load
	count := 0
	for v := range r.Inst.Clusters {
		for i := range r.Inst.Clusters[v].Clients {
			sum = sum.Add(r.ClientLoad(v, i))
			count++
		}
	}
	if count == 0 {
		return Load{}
	}
	return sum.Scale(1 / float64(count))
}

// NodeLoad pairs a node identity with its expected load.
type NodeLoad struct {
	ID   network.NodeID
	Load Load
}

// AllNodeLoads returns the expected load of every peer in the instance
// (each redundant partner listed separately), in the instance's
// deterministic node order. This is the data behind the paper's Figure 12
// rank curves.
func (r *Result) AllNodeLoads() []NodeLoad {
	out := make([]NodeLoad, 0, r.Inst.NumPeers)
	r.Inst.ForEachNode(func(id network.NodeID, _ network.Peer) {
		var l Load
		if id.IsSuperPeer() {
			l = r.SuperPeerLoad(id.Cluster)
		} else {
			l = r.ClientLoad(id.Cluster, id.Client)
		}
		out = append(out, NodeLoad{ID: id, Load: l})
	})
	return out
}

// SourceResults returns E[R_S] (eq. 2) for queries sourced at cluster v.
func (r *Result) SourceResults(v int) float64 { return r.respToSource[v].results }
