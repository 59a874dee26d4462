// Package control is the fleet control plane: the operational form of the
// paper's Section 5.3 local decision rules. A Controller watches every
// super-peer of a live deployment through two channels — a persistent control
// link (over which nodes announce themselves with Register frames and receive
// Directives) and the node's /metrics telemetry (scraped and compared against
// the analytical prediction) — and closes the loop by pushing decisions back:
// partner-promotion when a super-peer dies or re-registers in a storm,
// cluster split and TTL decay on sustained overload, coalesce on sustained
// underload.
//
// Everything is robust by construction. Control RPCs use seeded exponential
// backoff with jitter, per-RPC timeouts, and epoch-versioned idempotent
// directives, so a retried or replayed directive is harmless. Nodes keep
// serving on their last-applied configuration whenever the controller is
// unreachable, and a restarted controller rebuilds its epoch watermark from
// the fleet's Register announcements — no durable controller state exists to
// lose.
package control

import (
	"fmt"
	"net/http"
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
	// Telemetry is the node's /metrics HTTP address ("" disables scraping;
	// deadness is then judged on the control link alone).
	Telemetry string
	// Cluster and Partner locate the node in the k-redundant layout, so the
	// controller knows whose partner to promote.
	Cluster int
	Partner int
}

// Options configure a Controller.
type Options struct {
	// Nodes is the fleet.
	Nodes []NodeConfig
	// ScrapeInterval is the decision-loop tick (default 2s). One telemetry
	// fetch is bounded by half a tick, and detection latency for a dead node
	// is at most two ticks (deadAfter).
	ScrapeInterval time.Duration
	// RPCTimeout bounds one directive push round trip (default 2s).
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
	// TimeScale converts wall-clock scrape rates into model (virtual)
	// per-second rates when the workload is driven on compressed time:
	// virtual seconds per wall second (default 1).
	TimeScale float64
	// Net is the transport both control links and telemetry scrapes dial on
	// (zero: TCP; the fault-injection hook).
	Net link.Net
	// OnEvent, when set, receives every controller event as it happens.
	OnEvent func(Event)
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

const (
	// deadAfter is how many consecutive scrape failures (with the control
	// link also down) declare a node dead.
	deadAfter = 2
	// flapRegisters is the re-registration-storm threshold: this many
	// Register frames from one node within a single tick triggers the same
	// partner-promotion response as death.
	flapRegisters = 3
	// sustainTicks is how many consecutive ticks a hotspot or underload
	// signal must persist before the controller acts — hysteresis against
	// one-scrape blips.
	sustainTicks = 2
	// cooldownTicks is how many ticks after an action the same node is left
	// alone, so a directive's effect is observed before the next one.
	cooldownTicks = 3
	// pushAttempts is how many times a directive is tried before the
	// controller gives up on it for this tick.
	pushAttempts = 3
)

func (o *Options) setDefaults() {
	if o.ScrapeInterval <= 0 {
		o.ScrapeInterval = 2 * time.Second
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
	// EvLinkDown: a control link dropped.
	EvLinkDown
	// EvScrapeFailed: one telemetry scrape failed.
	EvScrapeFailed
	// EvDead: a node was declared dead (scrapes failing, link down) or
	// re-registering in a storm.
	EvDead
	// EvRecovered: a dead node came back.
	EvRecovered
	// EvPushed: a directive was handed to the push path.
	EvPushed
	// EvAcked: a directive was acknowledged by its node.
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
	EvScrapeFailed: "scrape-failed", EvDead: "dead", EvRecovered: "recovered",
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
	// scrapeFails counts consecutive failed telemetry scrapes.
	scrapeFails int
	// prevBytes is the last scraped per-class byte matrix, prevAt its time;
	// deltas between scrapes become the measured load.
	prevBytes metrics.ByClass
	prevAt    time.Time
	havePrev  bool
	// load is the latest measured per-scrape load; haveLoad gates the load
	// rules until at least one real delta exists (a fresh baseline scrape
	// alone says nothing about rate).
	load     analysis.Load
	haveLoad bool
	// dead marks a node the controller has written off (and responded to).
	dead bool
	// promotedFor, on a surviving partner, names the dead node whose
	// cluster it was promoted to absorb, until the walk-back is acked; ""
	// otherwise.
	promotedFor string
	// overTicks / underTicks count consecutive ticks of hotspot / underload
	// signal, for hysteresis.
	overTicks  int
	underTicks int
	// cooldown suppresses further load actions for a few ticks after one.
	cooldown int
	// ttl tracks the TTL the controller believes the node runs (BaseTTL
	// until a directive carrying a TTL is acked).
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
	ScrapeFails int
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
	events []Event

	scrape *http.Client

	wg   sync.WaitGroup
	stop chan struct{}
}

// New builds a controller over the given fleet.
func New(opts Options) *Controller {
	opts.setDefaults()
	c := &Controller{
		opts:   opts,
		nodes:  make(map[string]*nodeState),
		scrape: opts.Net.HTTPClient(opts.ScrapeInterval / 2),
		stop:   make(chan struct{}),
	}
	rng := stats.NewRNG(opts.Seed)
	for i, cfg := range opts.Nodes {
		st := &nodeState{
			agent: newAgent(c, cfg, rng.Split(uint64(i)+1)),
			ttl:   opts.BaseTTL,
		}
		c.nodes[cfg.ID] = st
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
		link.Every(c.stop, c.opts.ScrapeInterval, c.tick)
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
	c.mu.Lock()
	for _, id := range c.order {
		st := c.nodes[id]
		st.agent.mu.Lock()
		if st.agent.conn != nil {
			st.agent.conn.Close()
		}
		st.agent.mu.Unlock()
	}
	c.mu.Unlock()
	c.wg.Wait()
	c.scrape.CloseIdleConnections()
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
			LinkUp:      st.agent.linkUp(),
			Dead:        st.dead,
			Promoted:    st.promotedFor != "",
			PromotedFor: st.promotedFor,
			ScrapeFails: st.scrapeFails,
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

// tick runs one control cycle of the decision loop: scrape everyone, then
// apply the decision rules. Survives any combination of scrape failures and
// dead links; a tick never blocks longer than the per-RPC and per-scrape
// timeouts bound.
func (c *Controller) tick(time.Time) {
	for _, id := range c.order {
		c.scrapeNode(id)
	}
	c.decide()
}

// scrapeNode fetches one node's telemetry and folds it into measured load.
func (c *Controller) scrapeNode(id string) {
	c.mu.Lock()
	st := c.nodes[id]
	cfg := st.agent.cfg
	c.mu.Unlock()
	if cfg.Telemetry == "" {
		return
	}
	bytes, err := metrics.ScrapeClassBytes(c.scrape, cfg.Telemetry)
	now := time.Now()
	c.mu.Lock()
	if err != nil {
		st.scrapeFails++
		// A gap poisons the delta; restart the baseline and stale rate.
		st.havePrev, st.haveLoad = false, false
		c.mu.Unlock()
		c.event(Event{Type: EvScrapeFailed, Node: id, Detail: err.Error()})
		return
	}
	st.scrapeFails = 0
	if st.havePrev {
		dt := now.Sub(st.prevAt).Seconds() * c.opts.TimeScale
		var in, out float64
		reset := false
		for cl := 0; cl < metrics.NumClasses; cl++ {
			dIn := bytes[cl][metrics.DirIn] - st.prevBytes[cl][metrics.DirIn]
			dOut := bytes[cl][metrics.DirOut] - st.prevBytes[cl][metrics.DirOut]
			reset = reset || dIn < 0 || dOut < 0
			in += dIn
			out += dOut
		}
		switch {
		case reset:
			// The node restarted between the scrapes, so its counters began
			// again at zero: a gap, as after a failed scrape. This scrape is
			// the new baseline.
			st.haveLoad = false
		case dt > 0:
			st.load = analysis.Load{InBps: in * 8 / dt, OutBps: out * 8 / dt}
			st.haveLoad = true
		}
	}
	st.prevBytes, st.prevAt, st.havePrev = bytes, now, true
	c.mu.Unlock()
}

// decide applies the Section 5.3 rules to the fleet's current picture.
func (c *Controller) decide() {
	c.decideDeaths()
	if c.opts.Limit != (analysis.Load{}) {
		c.decideLoad()
	}
}

// decideDeaths finds dead or storming nodes and promotes their partners;
// when a dead node returns, the promotion is unwound.
func (c *Controller) decideDeaths() {
	for _, id := range c.order {
		c.mu.Lock()
		st := c.nodes[id]
		cfg := st.agent.cfg
		wasDead := st.dead
		linkUp := st.agent.linkUp()
		fails := st.scrapeFails
		c.mu.Unlock()
		regs, bye := st.agent.takeRegisters()

		scrapeDead := cfg.Telemetry != "" && fails >= deadAfter
		linkDead := cfg.Telemetry == "" && !linkUp
		storm := regs >= flapRegisters
		dead := bye || storm || ((scrapeDead || linkDead) && !linkUp)

		switch {
		case dead && !wasDead:
			c.mu.Lock()
			st.dead = true
			c.mu.Unlock()
			detail := "scrapes failing, link down"
			if bye {
				detail = "deregistered"
			} else if storm {
				detail = fmt.Sprintf("re-registration storm (%d in one tick)", regs)
			}
			c.event(Event{Type: EvDead, Node: id, Detail: detail})
			c.promotePartnerOf(cfg)
		case dead && wasDead:
			// Still dead and nobody promoted yet (the push may have failed
			// while the controller was partitioned): keep trying, so the
			// fleet reconverges once connectivity heals.
			if c.coveringPartner(cfg.ID) == nil {
				c.promotePartnerOf(cfg)
			}
		case !dead && wasDead && linkUp:
			c.mu.Lock()
			st.dead = false
			c.mu.Unlock()
			c.event(Event{Type: EvRecovered, Node: id})
			fallthrough
		case !dead && !wasDead:
			// Alive: walk back any partner still promoted for it. A
			// walk-back whose push failed (say, the partner was cut off) is
			// retried every tick until it is acked, as promotion is.
			c.restorePartnerOf(cfg)
		}
	}
}

// promotePartnerOf pushes a partner-promotion directive to the first live
// same-cluster partner of the dead node: absorb the orphaned clients by
// doubling capacity. Section 5.3 rule I's failure response, pushed instead
// of simulated.
func (c *Controller) promotePartnerOf(dead NodeConfig) {
	survivor := c.pickSurvivor(dead)
	if survivor == nil {
		c.opts.Logf("control: no live partner to promote for %s", dead.ID)
		return
	}
	c.pushDirective(survivor, &gnutella.Directive{
		Action:     gnutella.ActionPromotePartner,
		MaxClients: uint16(2 * c.opts.ClientCapacity),
	}, func(st *nodeState) { st.promotedFor = dead.ID })
}

// restorePartnerOf unwinds a promotion once the dead node is back: the
// promoted partner returns to baseline capacity (the split half of rule I —
// the recovered node takes its clients back as they re-home). A partner
// whose control link is down is left for a later tick.
func (c *Controller) restorePartnerOf(recovered NodeConfig) {
	promoted := c.coveringPartner(recovered.ID)
	if promoted == nil || !promoted.agent.linkUp() {
		return
	}
	c.pushDirective(promoted, &gnutella.Directive{
		Action:     gnutella.ActionSplitCluster,
		MaxClients: uint16(c.opts.ClientCapacity),
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

// pickSurvivor returns the first same-cluster partner of `dead` whose
// control link is up, in fleet order.
func (c *Controller) pickSurvivor(dead NodeConfig) *nodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		st := c.nodes[id]
		cfg := st.agent.cfg
		if cfg.ID != dead.ID && cfg.Cluster == dead.Cluster && !st.dead && st.agent.linkUp() {
			return st
		}
	}
	return nil
}

// decideLoad applies the hotspot and underload rules with hysteresis: a
// signal must persist sustainTicks before the controller acts, and an acted
// on node is left alone for cooldownTicks.
func (c *Controller) decideLoad() {
	for _, id := range c.order {
		c.mu.Lock()
		st := c.nodes[id]
		if st.dead || !st.haveLoad {
			st.overTicks, st.underTicks = 0, 0
			c.mu.Unlock()
			continue
		}
		if st.cooldown > 0 {
			st.cooldown--
			c.mu.Unlock()
			continue
		}
		// Clients is not directly observable over telemetry; assume a
		// promotable cluster (>=2 clients) so rule I's shed arm is reachable.
		adv := design.Advise(design.LocalState{
			Load: st.load, Limit: c.opts.Limit,
			Clients: 2, TTL: st.ttl,
		}, design.Thresholds{})
		var over, under bool
		switch {
		case adv.PromotePartner || adv.SplitCluster || adv.Resign:
			st.overTicks++
			st.underTicks = 0
			over = st.overTicks >= sustainTicks
		case adv.TryCoalesce:
			st.underTicks++
			st.overTicks = 0
			under = st.underTicks >= sustainTicks
		default:
			st.overTicks, st.underTicks = 0, 0
		}
		load, ttl := st.load, st.ttl
		c.mu.Unlock()

		switch {
		case over:
			c.event(Event{Type: EvHotspot, Node: id,
				Detail: fmt.Sprintf("load %s vs limit %s", load, c.opts.Limit)})
			// Shed: cap the cluster at half baseline (split), and decay TTL
			// one step to cut forwarded-query bandwidth (rule III under
			// pressure).
			d := &gnutella.Directive{
				Action:     gnutella.ActionSplitCluster,
				MaxClients: uint16(max(1, c.opts.ClientCapacity/2)),
			}
			if ttl > 1 {
				d.TTL = uint8(ttl - 1)
			}
			c.pushDirective(st, d, func(st *nodeState) {
				st.cooldown = cooldownTicks
				st.overTicks = 0
				if d.TTL > 0 {
					st.ttl = int(d.TTL)
				}
			})
		case under:
			c.event(Event{Type: EvUnderload, Node: id,
				Detail: fmt.Sprintf("load %s vs limit %s", load, c.opts.Limit)})
			// Coalesce: open capacity to absorb another small cluster, and
			// restore the baseline TTL if decayed.
			d := &gnutella.Directive{
				Action:     gnutella.ActionCoalesce,
				MaxClients: uint16(2 * c.opts.ClientCapacity),
			}
			if ttl < c.opts.BaseTTL {
				d.TTL = uint8(c.opts.BaseTTL)
			}
			c.pushDirective(st, d, func(st *nodeState) {
				st.cooldown = cooldownTicks
				st.underTicks = 0
				if d.TTL > 0 {
					st.ttl = int(d.TTL)
				}
			})
		}
	}
}

// pushDirective allocates an epoch, pushes d to the node, and on success
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
