// Package control is the fleet control plane: the operational form of the
// paper's Section 5.3 local decision rules. A Controller reaches every
// super-peer of a live deployment through one channel, a control link it
// dials, and closes the loop by pushing decisions back on it:
// partner-promotion when a super-peer dies or re-registers in a storm,
// cluster split and TTL decay on sustained overload, coalesce on sustained
// underload.
//
// Wire. The node sends one kind of frame, Register: flags, its directive
// epoch, its metered wire bytes In and Out over every class since it
// started, and its client count. It sends one when the link opens and one
// after every Poll and every Directive. A push's receipt is the first
// Register whose epoch is at least the push's: the node then holds that
// directive or a newer one.
//
// Tick. Each tick samples every node's latest Register, decides, then sends
// every linked node a Poll. A node's load is the bytes between this tick's
// sample and the last tick's on the same link, over the wall time between
// their arrivals times TimeScale; its client count is the sample's. A new
// link starts a new baseline: the controller dials every link and a node's
// links die with its process, so counters never run backwards on one link.
//
// Death. A node is dead on a bye, a storm (flapRegisters links opened in
// one tick) or a down link. The node answers every Poll and Directive, so a
// link that leaves one unanswered for RPCTimeout is down, even one a
// partition blackholes. A dead node's partner is promoted only if it was
// alive when the node died.
//
// Pushes retry with seeded backoff and are idempotent by epoch. Nodes keep
// serving on their last-applied configuration whenever the controller is
// unreachable, and a restarted controller rebuilds its epoch watermark from
// the fleet's Registers: no durable controller state exists to lose.
package control

import (
	"fmt"
	"math"
	"sync"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/design"
	"spnet/internal/gnutella"
	"spnet/internal/link"
	"spnet/internal/metrics"
	"spnet/internal/stats"
)

// NodeConfig names one super-peer under control.
type NodeConfig struct {
	// ID is the node's stable label in events and status (e.g. "sp-0-1").
	ID string
	// Addr is the node's p2p listen address (control links dial it).
	Addr string
	// Cluster and Partner locate the node in the k-redundant layout, so the
	// controller knows whose partner to promote.
	Cluster int
	Partner int
}

// Options configure a Controller.
type Options struct {
	// Nodes is the fleet.
	Nodes []NodeConfig
	// Interval is the decision-loop tick (default 2s).
	Interval time.Duration
	// RPCTimeout bounds one directive push round trip, and the wait for the
	// Register answering any Poll or Directive before the link is down
	// (default 2s).
	RPCTimeout time.Duration
	// DialTimeout bounds each control-link dial and its hello (default 2s).
	DialTimeout time.Duration
	// Backoff shapes redial and retry delays (default 100ms..2s).
	Backoff link.Backoff
	// Seed drives every random draw (backoff jitter); fixed seed, fixed
	// schedule.
	Seed uint64
	// ClientCapacity is the fleet's baseline per-node client capacity.
	// Promotion pushes 2× this to the surviving partner; recovery restores
	// it (default 100).
	ClientCapacity int
	// Limit is the per-node load limit measured load is compared against —
	// typically derived from the analytical prediction via PredictedLoad
	// (Result.SuperPeerClassBps) plus headroom. The zero value disables the
	// hotspot and underload rules; death handling always runs.
	Limit analysis.Load
	// BaseTTL is the TTL nodes start with, the ceiling TTL decay works down
	// from (default 7).
	BaseTTL int
	// TimeScale converts wall-clock load rates into model (virtual)
	// per-second rates when the workload is driven on compressed time:
	// virtual seconds per wall second (default 1).
	TimeScale float64
	// Net is the transport control links dial on (zero: TCP; the
	// fault-injection hook).
	Net link.Net
	// OnEvent, when set, receives every controller event as it happens.
	OnEvent func(Event)
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

const (
	// flapRegisters is the re-registration-storm threshold: this many links
	// to one node opened within a single tick trigger the same
	// partner-promotion response as death.
	flapRegisters = 3
	// pushAttempts is how many times a directive is tried before the
	// controller gives up on it for this tick.
	pushAttempts = 3
)

func (o *Options) setDefaults() {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = 2 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	o.Backoff = o.Backoff.Or(link.Backoff{Initial: 100 * time.Millisecond, Max: 2 * time.Second})
	if o.ClientCapacity <= 0 {
		o.ClientCapacity = 100
	}
	if o.BaseTTL <= 0 {
		o.BaseTTL = 7
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// EventType labels a controller event.
type EventType int

// Controller events, in rough lifecycle order.
const (
	// EvRegistered: a node announced itself on its control link.
	EvRegistered EventType = iota
	// EvDeregistered: a node sent a graceful bye (drain, not crash).
	EvDeregistered
	// EvLinkDown: a control link dropped or fell silent.
	EvLinkDown
	// EvDead: a node was declared dead: deregistered, re-registering in a
	// storm, or its link down.
	EvDead
	// EvRecovered: a dead node came back.
	EvRecovered
	// EvPushed: a directive was handed to the push path.
	EvPushed
	// EvAcked: a directive's receipt arrived.
	EvAcked
	// EvPushFailed: a directive exhausted its retries; the node keeps its
	// last-known configuration.
	EvPushFailed
	// EvHotspot: measured load exceeded the limit on a sustained basis.
	EvHotspot
	// EvUnderload: measured load fell below the coalesce threshold on a
	// sustained basis.
	EvUnderload
)

var eventNames = map[EventType]string{
	EvRegistered: "registered", EvDeregistered: "deregistered", EvLinkDown: "link-down",
	EvDead: "dead", EvRecovered: "recovered",
	EvPushed: "pushed", EvAcked: "acked", EvPushFailed: "push-failed",
	EvHotspot: "hotspot", EvUnderload: "underload",
}

func (e EventType) String() string {
	if s, ok := eventNames[e]; ok {
		return s
	}
	return fmt.Sprintf("EventType(%d)", int(e))
}

// Event is one observable controller action or observation.
type Event struct {
	Time   time.Time
	Type   EventType
	Node   string
	Epoch  uint64
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("%s %s", e.Type, e.Node)
	if e.Epoch > 0 {
		s += fmt.Sprintf(" epoch=%d", e.Epoch)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// nodeState is the controller's per-node bookkeeping.
type nodeState struct {
	agent *agent
	// prev is the last tick's sample; the bytes between it and this tick's
	// become the measured load.
	prev sample
	// load is the latest measured load; haveLoad gates the load rules on a
	// fresh one: a new Register this tick, on the link of the last tick's.
	load     analysis.Load
	haveLoad bool
	// dead marks a node the controller has written off (and responded to);
	// since is the tick it last turned dead or alive. The decision loop
	// writes both under mu, so it alone may read them without.
	dead  bool
	since int
	// promotedFor, on a surviving partner, names the dead node whose
	// cluster it was promoted to absorb, until the walk-back's receipt; ""
	// otherwise.
	promotedFor string
	// local is the node's Section 5.3 decision state.
	local design.Local
	// ttl tracks the TTL the controller believes the node runs (BaseTTL
	// until a directive carrying a TTL has its receipt).
	ttl int
}

// NodeStatus is the externally visible slice of a node's state.
type NodeStatus struct {
	ID       string
	LinkUp   bool
	Dead     bool
	Promoted bool
	// PromotedFor names the dead partner this node was promoted to cover.
	PromotedFor string
	Load        analysis.Load
	TTL         int
}

// Controller is the fleet controller. Create with New, start with Start,
// stop with Close.
type Controller struct {
	opts Options

	mu     sync.Mutex
	nodes  map[string]*nodeState
	order  []string // Nodes order, for deterministic iteration
	epoch  uint64
	ticks  int // decision ticks so far, nodeState.since's clock; decision loop only
	events []Event

	wg   sync.WaitGroup
	stop chan struct{}
}

// New builds a controller over the given fleet.
func New(opts Options) *Controller {
	opts.setDefaults()
	c := &Controller{
		opts:  opts,
		nodes: make(map[string]*nodeState),
		stop:  make(chan struct{}),
	}
	rng := stats.NewRNG(opts.Seed)
	for i, cfg := range opts.Nodes {
		c.nodes[cfg.ID] = &nodeState{ttl: opts.BaseTTL, agent: &agent{
			ctrl: c, cfg: cfg, rng: rng.Split(uint64(i) + 1), pending: make(map[uint64]chan struct{}),
		}}
		c.order = append(c.order, cfg.ID)
	}
	return c
}

// Start launches the control links and the decision loop.
func (c *Controller) Start() {
	for _, id := range c.order {
		c.wg.Add(1)
		go c.nodes[id].agent.run()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		link.Every(c.stop, c.opts.Interval, c.tick)
	}()
}

// Close stops the controller. Nodes keep whatever configuration they last
// applied — shutting the controller down is itself a degradation the fleet
// must tolerate.
func (c *Controller) Close() {
	select {
	case <-c.stop:
		return
	default:
	}
	close(c.stop)
	for _, id := range c.order {
		if conn := c.nodes[id].agent.liveConn(); conn != nil {
			conn.Close()
		}
	}
	c.wg.Wait()
}

// Epoch returns the controller's current directive epoch watermark.
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Events returns a copy of every event so far, in order.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Status snapshots every node's controller-side state, in fleet order.
func (c *Controller) Status() []NodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStatus, 0, len(c.order))
	for _, id := range c.order {
		st := c.nodes[id]
		out = append(out, NodeStatus{
			ID:          id,
			LinkUp:      st.agent.liveConn() != nil,
			Dead:        st.dead,
			Promoted:    st.promotedFor != "",
			PromotedFor: st.promotedFor,
			Load:        st.load,
			TTL:         st.ttl,
		})
	}
	return out
}

// event records and publishes one event.
func (c *Controller) event(e Event) {
	e.Time = time.Now()
	c.mu.Lock()
	c.events = append(c.events, e)
	cb := c.opts.OnEvent
	c.mu.Unlock()
	c.opts.Logf("control: %s", e)
	if cb != nil {
		cb(e)
	}
}

// adoptEpoch raises the epoch watermark to at least e — how a restarted
// controller relearns where the fleet's epoch sequence left off from
// Register announcements, keeping directives monotonic across restarts.
func (c *Controller) adoptEpoch(e uint64) {
	c.mu.Lock()
	if e > c.epoch {
		c.epoch = e
	}
	c.mu.Unlock()
}

// nextEpoch allocates the next directive epoch.
func (c *Controller) nextEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	return c.epoch
}

// tick runs one control cycle of the decision loop: sample every node's
// latest Register, apply the decision rules, then poll every linked node for
// the next sample. A tick never blocks longer than the per-RPC timeouts
// bound.
func (c *Controller) tick(time.Time) {
	for _, id := range c.order {
		c.sample(c.nodes[id])
	}
	c.decide()
	for _, id := range c.order {
		c.nodes[id].agent.poll()
	}
}

// sample keeps a node's latest Register as this tick's sample and folds it
// into the measured load. The first sample on a link is a baseline with no
// load.
func (c *Controller) sample(st *nodeState) {
	cur := st.agent.latest()
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := st.prev
	st.prev = cur
	st.haveLoad = false
	switch {
	case cur.conn == nil || cur.conn != prev.conn:
		st.load = analysis.Load{}
	case cur.at.After(prev.at):
		dt := cur.at.Sub(prev.at).Seconds() * c.opts.TimeScale
		st.load = analysis.Load{
			InBps:  float64(cur.reg.In-prev.reg.In) * 8 / dt,
			OutBps: float64(cur.reg.Out-prev.reg.Out) * 8 / dt,
		}
		st.haveLoad = true
	}
}

// decide applies the Section 5.3 rules to the fleet's current picture.
func (c *Controller) decide() {
	c.decideDeaths()
	if c.opts.Limit != (analysis.Load{}) {
		c.decideLoad()
	}
}

// decideDeaths rules every node dead or alive, then, every tick until it
// lands, promotes a partner for each uncovered dead node and walks back any
// partner still promoted for a live one.
func (c *Controller) decideDeaths() {
	c.ticks++
	for _, id := range c.order {
		st := c.nodes[id]
		linkUp := st.agent.liveConn() != nil
		regs, bye := st.agent.takeRegisters()
		storm := regs >= flapRegisters
		dead := bye || storm || !linkUp
		if dead == st.dead {
			continue
		}
		c.mu.Lock()
		st.dead, st.since = dead, c.ticks
		c.mu.Unlock()
		if !dead {
			c.event(Event{Type: EvRecovered, Node: id})
			continue
		}
		detail := "link down"
		if bye {
			detail = "deregistered"
		} else if storm {
			detail = fmt.Sprintf("re-registration storm (%d in one tick)", regs)
		}
		c.event(Event{Type: EvDead, Node: id, Detail: detail})
	}
	for _, id := range c.order {
		if st := c.nodes[id]; !st.dead {
			c.restorePartnerOf(id)
		} else if c.coveringPartner(id) == nil {
			c.promotePartnerOf(st)
		}
	}
}

// promotePartnerOf pushes a partner-promotion directive to the first
// same-cluster partner whose link is up and that was alive when the dead node
// died: absorb the orphans by doubling capacity (Section 5.3 rule I's failure
// response). A controller partition kills every node, so the first link back
// must not cover for the rest.
func (c *Controller) promotePartnerOf(dead *nodeState) {
	var survivor *nodeState
	c.mu.Lock()
	for _, id := range c.order {
		st := c.nodes[id]
		if st.agent.cfg.Cluster == dead.agent.cfg.Cluster && !st.dead && st.since < dead.since && st.agent.liveConn() != nil {
			survivor = st
			break
		}
	}
	c.mu.Unlock()
	if survivor != nil {
		c.pushDirective(survivor, &gnutella.Directive{
			Action:     gnutella.ActionPromotePartner,
			MaxClients: capacity(2 * c.opts.ClientCapacity),
		}, func(st *nodeState) { st.promotedFor = dead.agent.cfg.ID })
	}
}

// restorePartnerOf unwinds a promotion once the dead node is back: the
// promoted partner returns to baseline capacity (the split half of rule I —
// the recovered node takes its clients back as they re-home). A partner
// whose control link is down is left for a later tick.
func (c *Controller) restorePartnerOf(recovered string) {
	promoted := c.coveringPartner(recovered)
	if promoted == nil || promoted.agent.liveConn() == nil {
		return
	}
	c.pushDirective(promoted, &gnutella.Directive{
		Action:     gnutella.ActionSplitCluster,
		MaxClients: capacity(c.opts.ClientCapacity),
	}, func(st *nodeState) { st.promotedFor = "" })
}

// coveringPartner returns the partner promoted to absorb the named node, or
// nil when none is.
func (c *Controller) coveringPartner(id string) *nodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, other := range c.order {
		if st := c.nodes[other]; st.promotedFor == id {
			return st
		}
	}
	return nil
}

// decideLoad runs each node's decision step on its fresh load; a dead node
// or a tick with no fresh sample is a missed observation. The step starts a
// cooldown when it acts, whether or not the push lands. Only the decision
// loop writes what this reads, so it reads without mu.
func (c *Controller) decideLoad() {
	for _, id := range c.order {
		st := c.nodes[id]
		if st.dead || !st.haveLoad {
			st.local.Miss()
			continue
		}
		adv := st.local.Step(design.Obs{Load: st.load, Limit: c.opts.Limit, Clients: int(st.prev.reg.Clients), TTL: st.ttl})
		var ev EventType
		var d *gnutella.Directive
		switch adv.Action {
		case design.Hold:
			continue
		case design.Coalesce:
			// Open capacity to absorb another small cluster, and restore the
			// baseline TTL if decayed.
			ev = EvUnderload
			d = &gnutella.Directive{Action: gnutella.ActionCoalesce, MaxClients: capacity(2 * c.opts.ClientCapacity)}
			if st.ttl < c.opts.BaseTTL {
				d.TTL = uint8(c.opts.BaseTTL)
			}
		default:
			// Promote, Split or Resign sheds: cap the cluster at half
			// baseline (split), and decay TTL one step to cut forwarded-query
			// bandwidth (rule III under pressure).
			ev = EvHotspot
			d = &gnutella.Directive{Action: gnutella.ActionSplitCluster, MaxClients: capacity(max(1, c.opts.ClientCapacity/2))}
			if st.ttl > 1 {
				d.TTL = uint8(st.ttl - 1)
			}
		}
		c.event(Event{Type: ev, Node: id, Detail: fmt.Sprintf("load %s vs limit %s", st.load, c.opts.Limit)})
		c.pushDirective(st, d, func(st *nodeState) {
			if d.TTL > 0 {
				st.ttl = int(d.TTL)
			}
		})
	}
}

// capacity is a client capacity as a directive carries it: saturated at the
// field's 65535, never wrapped.
func capacity(n int) uint16 { return uint16(min(n, math.MaxUint16)) }

// pushDirective allocates an epoch, pushes d to the node, and on its receipt
// applies onAcked to the node's controller-side state. On exhausted retries
// the node simply keeps its last-known configuration; the decision will be
// re-derived (with a fresh epoch) on a later tick if it still holds.
func (c *Controller) pushDirective(st *nodeState, d *gnutella.Directive, onAcked func(*nodeState)) {
	d.Epoch = c.nextEpoch()
	d.ID = gnutella.NewGUID()
	c.event(Event{Type: EvPushed, Node: st.agent.cfg.ID, Epoch: d.Epoch,
		Detail: fmt.Sprintf("%s max-clients=%d ttl=%d", d.Action, d.MaxClients, d.TTL)})
	if err := st.agent.push(d); err != nil {
		c.event(Event{Type: EvPushFailed, Node: st.agent.cfg.ID, Epoch: d.Epoch, Detail: err.Error()})
		return
	}
	if onAcked != nil {
		c.mu.Lock()
		onAcked(st)
		c.mu.Unlock()
	}
}

// PredictedLoad folds an analytical per-class bandwidth prediction
// (analysis.Result.SuperPeerClassBps) into the Load form Options.Limit
// expects, scaled by headroom (e.g. 1.5 = alarm at 150% of predicted).
func PredictedLoad(b metrics.ByClass, headroom float64) analysis.Load {
	var l analysis.Load
	for cl := 0; cl < metrics.NumClasses; cl++ {
		l.InBps += b[cl][metrics.DirIn]
		l.OutBps += b[cl][metrics.DirOut]
	}
	return l.Scale(headroom)
}
