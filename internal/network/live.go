package network

import (
	"fmt"
	"sync"

	"spnet/internal/faults"
	"spnet/internal/link"
	"spnet/internal/p2p"
	"spnet/internal/topology"
)

// LiveConfig shapes a live loopback deployment: real p2p.Node super-peers
// wired into the paper's redundant-cluster topology, with every connection
// routed through a faults.Controller so churn is scriptable and
// deterministic.
type LiveConfig struct {
	// Overlay is the graph the fleet is wired from: node v is cluster v, and
	// every partner of a cluster links to every partner of each neighboring
	// cluster. Hand it the Instance.Graph the model and the simulator
	// evaluate and all three layers run one topology. Nil selects the ring
	// over Clusters.
	Overlay topology.Graph
	// Clusters is the number of virtual super-peers on the default ring
	// (default 3); with an Overlay it is Overlay.N().
	Clusters int
	// Partners is the k-redundancy level: partners per virtual super-peer
	// (Section 3.2; default 2).
	Partners int
	// Seed, offset by the slot number, is each super-peer's RoutingSeed.
	Seed uint64
	// Node is the base configuration applied to every super-peer; its Net
	// is overwritten to route through the fault controller, and its
	// RoutingSeed with the slot's.
	Node p2p.Options
	// Adjust, when set, edits one slot's copy of Node before the super-peer
	// is built (at launch and again on every restart) — how a fleet plants
	// an adversary or any other odd node out.
	Adjust func(cluster, partner int, opts *p2p.Options)
}

func (c *LiveConfig) setDefaults() {
	if c.Clusters <= 0 {
		c.Clusters = 3
	}
	if c.Overlay == nil {
		c.Overlay = topology.Ring(c.Clusters)
	}
	c.Clusters = c.Overlay.N()
	if c.Partners <= 0 {
		c.Partners = 2
	}
}

// liveNode is one super-peer slot. The listen address is pinned at launch so
// a restarted super-peer reappears where clients and peers expect it.
type liveNode struct {
	node *p2p.Node // nil while killed
	addr string
}

// Live runs a real super-peer network on loopback and orchestrates churn
// against it: killing and restarting super-peers, partitioning whole
// clusters, and injecting link faults. Clusters are the nodes of
// LiveConfig.Overlay; all partners of adjacent clusters are fully
// inter-linked, and partners within a cluster peer with each other, matching
// the paper's redundancy wiring.
type Live struct {
	cfg  LiveConfig
	ctrl *faults.Controller

	mu     sync.Mutex
	nodes  [][]*liveNode // [cluster][partner]
	closed bool
}

// NewLive builds the harness; call Launch to boot the network.
func NewLive(cfg LiveConfig) *Live {
	cfg.setDefaults()
	return &Live{cfg: cfg, ctrl: faults.NewController(cfg.Seed)}
}

// label names a super-peer slot for the fault controller.
func label(cluster, partner int) string { return fmt.Sprintf("sp-%d-%d", cluster, partner) }

// Net is the transport of fault label lbl: TCP through the fault
// controller, so isolating lbl blackholes everything listened or dialed on
// it. Each slot's node is the only listener on its own label's; the fleet
// controller dials on ControllerLabel's.
func (l *Live) Net(lbl string) link.Net { return l.ctrl.Net(lbl, link.Net{}) }

// Overlay returns the graph the fleet is wired from (the default ring when
// LiveConfig.Overlay was nil).
func (l *Live) Overlay() topology.Graph { return l.cfg.Overlay }

// Launch boots every super-peer and wires the overlay. On error the harness
// is closed.
func (l *Live) Launch() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nodes != nil {
		return fmt.Errorf("network: Launch called twice")
	}
	l.nodes = make([][]*liveNode, l.cfg.Clusters)
	for c := range l.nodes {
		l.nodes[c] = make([]*liveNode, l.cfg.Partners)
		for p := range l.nodes[c] {
			ln := &liveNode{node: l.newNode(c, p)}
			if err := ln.node.Listen("127.0.0.1:0"); err != nil {
				l.closeLocked()
				return err
			}
			ln.addr = ln.node.Addr()
			l.nodes[c][p] = ln
		}
	}
	for c := range l.nodes {
		for p, ln := range l.nodes[c] {
			if err := l.connectLocked(c, p, ln.node, true); err != nil {
				l.closeLocked()
				return err
			}
		}
	}
	return nil
}

// SuperPeerInfo identifies one live super-peer slot. The Live harness reports
// slots in stable cluster-major, partner-minor order with addresses pinned
// across kill/restart, so measurement loops and result tables are
// deterministic.
type SuperPeerInfo struct {
	Cluster int    // cluster index: the slot's overlay node
	Partner int    // partner rank within the cluster
	ID      string // stable label, "sp-<cluster>-<partner>"
	Addr    string // p2p listen address (pinned across restarts)
}

// SuperPeers enumerates every super-peer slot in stable cluster-major,
// partner-minor order — including killed slots, whose addresses remain valid
// for when they return.
func (l *Live) SuperPeers() []SuperPeerInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SuperPeerInfo, 0, len(l.nodes)*l.cfg.Partners)
	for c := range l.nodes {
		for p, ln := range l.nodes[c] {
			if ln == nil {
				continue
			}
			out = append(out, SuperPeerInfo{
				Cluster: c, Partner: p,
				ID: label(c, p), Addr: ln.addr,
			})
		}
	}
	return out
}

// newNode builds a super-peer whose connections all pass through the fault
// controller under the slot's label.
func (l *Live) newNode(cluster, partner int) *p2p.Node {
	opts := l.cfg.Node
	lbl := label(cluster, partner)
	opts.Net = l.Net(lbl)
	opts.RoutingSeed = l.cfg.Seed + uint64(cluster*l.cfg.Partners+partner+1)
	if l.cfg.Adjust != nil {
		l.cfg.Adjust(cluster, partner, &opts)
	}
	return p2p.NewNode(opts)
}

// connectLocked dials n's overlay links: its live co-partners (the
// intra-cluster mesh that lets partners hand off), then every live partner
// of each cluster adjacent in the overlay — k links per neighbor partner, the
// redundancy cost Section 3.2 accounts for. At launch only slots before the
// given one are dialed (the later slots dial back), so each link is
// established exactly once; a restarted slot dials its whole neighborhood,
// since nobody will dial back. Every target is tried and the first failure
// reported.
func (l *Live) connectLocked(cluster, partner int, n *p2p.Node, launch bool) error {
	var first error
	hood := append([]int32{int32(cluster)}, l.cfg.Overlay.Neighbors(cluster, nil)...)
	for _, c := range hood {
		for p, tgt := range l.nodes[c] {
			later := int(c) > cluster || (int(c) == cluster && p >= partner)
			if tgt.node == nil || tgt.node == n || (launch && later) {
				continue
			}
			if err := n.ConnectPeer(tgt.addr); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// ClusterAddrs returns the cluster's ranked partner addresses — the
// redundant super-peer list a client hands to DialOptions.Addrs. Addresses
// are stable across kill/restart.
func (l *Live) ClusterAddrs(cluster int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.nodes[cluster]))
	for p, ln := range l.nodes[cluster] {
		out[p] = ln.addr
	}
	return out
}

// Node returns the running super-peer in a slot, or nil while it is killed.
func (l *Live) Node(cluster, partner int) *p2p.Node {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nodes[cluster][partner].node
}

// KillSuperPeer crashes one partner: every one of its connections drops at
// once, exactly what the reliability experiment's failure process models.
func (l *Live) KillSuperPeer(cluster, partner int) error {
	l.mu.Lock()
	ln := l.nodes[cluster][partner]
	n := ln.node
	ln.node = nil
	l.mu.Unlock()
	if n == nil {
		return fmt.Errorf("network: super-peer %d/%d already dead", cluster, partner)
	}
	l.ctrl.ResetNode(label(cluster, partner))
	return n.Close()
}

// RestartSuperPeer brings a killed partner back on its original address and
// re-dials its overlay neighborhood. Clients re-join on their own via their
// supervised reconnect loops.
func (l *Live) RestartSuperPeer(cluster, partner int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("network: harness closed")
	}
	ln := l.nodes[cluster][partner]
	if ln.node != nil {
		return fmt.Errorf("network: super-peer %d/%d still running", cluster, partner)
	}
	n := l.newNode(cluster, partner)
	if err := n.Listen(ln.addr); err != nil {
		return err
	}
	ln.node = n
	return l.connectLocked(cluster, partner, n, false)
}

// ControllerLabel is the fault-controller label of the fleet controller's
// vantage point. Hand Net(ControllerLabel) to a control.Controller's
// Options.Net (internal/control cannot be imported here
// without a cycle — the experiment layer assembles the Options from
// SuperPeers()), and controller partitions become scriptable like any other
// fault.
const ControllerLabel = "controller"

// PartitionController cuts the fleet controller off from every node: its
// control links blackhole, while the overlay itself keeps running — the
// control plane's graceful-degradation drill.
func (l *Live) PartitionController() { l.ctrl.Isolate(ControllerLabel) }

// HealController reverses PartitionController.
func (l *Live) HealController() { l.ctrl.Restore(ControllerLabel) }

// PartitionCluster cuts every partner of a cluster off the network: their
// traffic blackholes until HealCluster. Connections stay up, so this models
// a network partition rather than a crash — dead-peer detection, not error
// returns, is what notices it.
func (l *Live) PartitionCluster(cluster int) {
	for p := range l.partners(cluster) {
		l.ctrl.Isolate(label(cluster, p))
	}
}

// HealCluster reverses PartitionCluster.
func (l *Live) HealCluster(cluster int) {
	for p := range l.partners(cluster) {
		l.ctrl.Restore(label(cluster, p))
	}
}

func (l *Live) partners(cluster int) []*liveNode {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nodes[cluster]
}

// Close tears the whole network down.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeLocked()
}

func (l *Live) closeLocked() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	for _, cluster := range l.nodes {
		for _, ln := range cluster {
			if ln == nil || ln.node == nil {
				continue
			}
			if err := ln.node.Close(); err != nil && first == nil {
				first = err
			}
			ln.node = nil
		}
	}
	return first
}
