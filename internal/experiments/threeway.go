package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/control"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/routing"
	"spnet/internal/sim"
	"spnet/internal/stats"
	"spnet/internal/topology"
)

// Scenario is one configuration priced three ways: analytically, in the
// simulator and on a live loopback fleet. It is a frozen value every arm of
// runThreeWay reads, so the three columns of a three-way experiment describe
// one network, one workload, one attack and one kill schedule. An experiment
// is a table of Scenarios plus a formatter over their ThreeWay results.
type Scenario struct {
	// Planted is the network. Every arm takes its instance from
	// network.NewPlanted(Planted), and the live fleet is wired from that
	// instance's graph. Cluster c's clients share files titled
	// routingTopic(c mod Topics) and every query asks for a uniformly random
	// topic, which is the content Planted prices.
	Planted network.Planted
	// Strategy is a routing spec (routing.Parse); empty is the paper's flood.
	Strategy string
	// Adversary, when set, plants misbehaving partners in all three arms:
	// the simulator takes it as it is, the live fleet turns
	// Malicious(cluster, slot) into p2p.MisbehaveOptions and Trust into the
	// nodes' and clients' reputation defenses, and the model prices the
	// per-leg losses it implies. Malicious must be set. The model's closed
	// form walks a topic-partitioned star whose hub is cluster 0, and
	// runThreeWay refuses an adversary on any other network.
	Adversary *sim.AdversaryOptions
	// Failures, when set, kills partners in the simulator and on the live
	// fleet. Its Schedule is drawn once and each arm plays the part inside
	// its own window: the simulator takes the options as they are, and the
	// live arm kills each scheduled slot and restarts it RecoveryDelay later
	// if that too falls inside the window. The model does not price
	// failures. Only at k = 1 do the two arms kill event for event
	// (sim.FailureOptions.Schedule).
	Failures *sim.FailureOptions
	// ClientCapacity, when positive, caps every live partner's clients
	// (p2p.Options.MaxClients). A client's first dial walks its cluster's
	// ranked partners past each full one, so clients fill partner 0 first.
	ClientCapacity int
	// ControlInterval, when positive, runs the fleet controller beside the
	// live arm, scraping every ControlInterval virtual seconds. It
	// provisions ClientCapacity clients per partner and Planted.TTL.
	ControlInterval float64
	// SimDuration is the simulator's run length in virtual seconds.
	SimDuration float64
	// Live is the live arm's measurement window.
	Live LiveLoad
	// Seed drives the simulator and the live arm's arrival plans, query
	// topics, misbehavior streams, client backoff jitter and (at Seed+1) the
	// controller's.
	Seed uint64
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

// LiveLoad is the live arm's load: every user the model counts — clients
// and partners — issues Poisson queries at Planted.QueryRate for Duration
// virtual seconds, replayed at TimeScale virtual seconds per wall second,
// and each search collects results for Window. Keep QueryRate × Window ×
// TimeScale below 1: a user searches one query at a time, so an arrival
// that lands inside its previous search window fires late.
type LiveLoad struct {
	Duration  float64
	TimeScale float64
	Window    time.Duration
}

func (s *Scenario) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ThreeWay is one Scenario measured three ways.
type ThreeWay struct {
	// Model is the mean-value analysis under the strategy's forward model
	// and the adversary's mean per-leg loss as RelayDrop.
	Model *analysis.Result
	// ModelLost is the closed-form fraction of client queries that find
	// nothing under the adversary (0 without one).
	ModelLost float64
	// ContentAware is set when the strategy prunes by content. The model's
	// expected results spread such a strategy's forwards uniformly over
	// neighbors, which undercounts it: its conservative summaries never
	// prune a matching branch, so its recall is exactly the flood's.
	ContentAware bool
	// Sim is the simulator's measurement.
	Sim *sim.Measured
	// Live is the live fleet's measurement.
	Live LiveMeasured
}

// LiveMeasured is what the live arm reads off its fleet over the measured
// window.
type LiveMeasured struct {
	// IDs and ClassBps are each super-peer's stable label and its per-class
	// bandwidth in bits per virtual second, in the harness's slot order.
	IDs      []string
	ClassBps []metrics.ByClass
	// Forwarded counts query copies sent over overlay links.
	Forwarded int64
	// Queries and Results count every user's searches — clients' and
	// partners' — and the results they collected.
	Queries, Results int
	// ClientQueries counts the clients' searches alone, ClientGenuine the
	// results among theirs that a dialable owner backs, and ClientLost the
	// searches that failed or came back without one genuine result.
	ClientQueries, ClientGenuine, ClientLost int
	// ClientDegraded counts client searches that were not lost but came back
	// with fewer genuine results than the planted files matching their
	// topic, and ClientBusy the Busy replies client searches collected.
	ClientDegraded, ClientBusy int
	// ForgedDetected counts QueryHits trust validation dropped as forged,
	// AdmissionShed overlay queries trust-aware admission refused, and
	// Reconnects client failovers — re-homes, on a fleet nobody kills. The
	// first two and Forwarded sum running nodes' counters, which a restart
	// resets, so they are window deltas only on a fleet nobody kills.
	ForgedDetected, AdmissionShed, Reconnects int64
	// Kills are the wall-clock times of the scheduled kills that took, and
	// Recovery each client's conn-lost → rejoined time in virtual seconds.
	Kills    []time.Time
	Recovery []float64
	// Events is the fleet controller's event log, nil without one.
	Events []control.Event
}

// ForwardsPerQuery is the mean number of overlay query copies per search.
func (l *LiveMeasured) ForwardsPerQuery() float64 {
	return ratio(int(l.Forwarded), l.Queries)
}

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runThreeWay prices s with the model, runs it in the simulator and
// measures it on a live fleet.
func runThreeWay(s Scenario) (*ThreeWay, error) {
	inst, err := network.NewPlanted(s.Planted)
	if err != nil {
		return nil, err
	}
	var strat routing.Strategy
	if s.Strategy != "" {
		if strat, err = routing.Parse(s.Strategy); err != nil {
			return nil, err
		}
	}
	tw := &ThreeWay{ContentAware: contentAware(strat)}
	if tw.Model, tw.ModelLost, err = s.model(inst, strat); err != nil {
		return nil, err
	}
	if tw.Sim, err = s.simulate(inst, strat); err != nil {
		return nil, err
	}
	if tw.Live, err = s.live(inst, strat); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	return tw, nil
}

// model prices the scenario with the mean-value analysis. The strategy's
// forward model and the adversary's relay drop are its only departures from
// analysis.Evaluate, so a flood scenario without an adversary gets
// Evaluate's bits. The content-aware forward model and the adversary's
// closed form hold only on a topic-partitioned star hubbed at cluster 0;
// any other network is an error rather than a wrong number.
func (s *Scenario) model(inst *network.Instance, strat routing.Strategy) (*analysis.Result, float64, error) {
	if (contentAware(strat) || s.Adversary != nil) && !(hubStar(inst.Graph) && s.Planted.Topics == inst.Graph.N()) {
		return nil, 0, fmt.Errorf("experiments: content-aware routing and adversaries are priced only on a star hubbed at cluster 0 with one topic per cluster")
	}
	fw, err := forwardModel(strat, inst.Graph.N())
	if err != nil {
		return nil, 0, err
	}
	opts := analysis.Options{Forwards: fw}
	lost := 0.0
	if s.Adversary != nil {
		q := legLoss(s.Adversary, inst.Graph.N(), s.Planted.Partners)
		for _, v := range q {
			opts.RelayDrop += v
		}
		opts.RelayDrop /= float64(len(q))
		lost = starLost(q)
	}
	return analysis.EvaluateWith(inst, opts), lost, nil
}

// forwardModel returns the analytic forward model of a strategy over n
// clusters: how many query copies a node forwards at the source and at a
// relay, in expectation over the uniform topic workload.
//
// Flood is nil (the engine's exact evaluation). Random walks use the generic
// k-walker model. For the content-aware strategies the topic-partitioned
// star has a closed form: a source forwards one copy unless the query's
// topic is its own cluster's (probability 1/n), and the hub relays a leaf's
// query to exactly one leaf unless the topic is the hub's own (conditional
// probability 1/(n-1) given it was forwarded at all):
//
//	source = 1 - 1/n        relay = (n-2)/(n-1)
//
// The learned strategy converges to the same decisions once every
// neighbor×term pair has history, so it shares the constants — its model is
// the steady state, not the exploration phase.
func forwardModel(strat routing.Strategy, n int) (*routing.Forwards, error) {
	switch st := strat.(type) {
	case nil, routing.Flood:
		return nil, nil
	case routing.RandomWalk:
		return st.Forwards(), nil
	}
	if contentAware(strat) {
		return routing.ConstForwards(strat.Name(), 1-1/float64(n), float64(n-2)/float64(n-1)), nil
	}
	return nil, fmt.Errorf("experiments: no analytic model for %q", strat.Name())
}

// contentAware reports whether a strategy prunes forwards by content.
func contentAware(strat routing.Strategy) bool {
	switch strat.(type) {
	case routing.RoutingIndex, routing.Learned:
		return true
	}
	return false
}

// hubStar reports whether g is a star centred on node 0: every other node's
// one neighbor is 0.
func hubStar(g topology.Graph) bool {
	for v := 1; v < g.N(); v++ {
		if nb := g.Neighbors(v, nil); len(nb) != 1 || nb[0] != 0 {
			return false
		}
	}
	return true
}

// legLoss returns each cluster's per-leg query-loss probability q(c): the
// chance that the partner chosen to receive a query — by a client at its own
// cluster, or by a forwarding neighbor — is malicious and drops it.
// Trust-oblivious choosers pick uniformly over the partner slots;
// reputation-weighted choosers avoid a malicious slot whenever an honest one
// exists.
func legLoss(a *sim.AdversaryOptions, clusters, partners int) []float64 {
	q := make([]float64, clusters)
	for c := range q {
		mal := 0
		for k := 0; k < partners; k++ {
			if a.Malicious(c, k) {
				mal++
			}
		}
		switch {
		case !a.Trust:
			q[c] = a.Drop * float64(mal) / float64(partners)
		case mal == partners:
			q[c] = a.Drop
		}
	}
	return q
}

// starLost is the closed-form lost-query fraction on the star: clients and
// query topics are uniform over clusters, and a query survives iff every
// leg's chosen partner relays it. Legs for a client at cluster x querying
// topic t: the access leg at x always; then x→hub, hub→t as the star path
// requires (cluster 0 is the hub).
func starLost(q []float64) float64 {
	n := len(q)
	total := 0.0
	for x := 0; x < n; x++ {
		for t := 0; t < n; t++ {
			surv := 1 - q[x]
			if t != x {
				if x != 0 {
					surv *= 1 - q[0]
				}
				if t != 0 {
					surv *= 1 - q[t]
				}
			}
			total += 1 - surv
		}
	}
	return total / float64(n*n)
}

// simulate runs the scenario in the discrete-event simulator.
func (s *Scenario) simulate(inst *network.Instance, strat routing.Strategy) (*sim.Measured, error) {
	opts := sim.Options{
		Duration:  s.SimDuration,
		Seed:      s.Seed,
		Routing:   strat,
		Adversary: s.Adversary,
		Failures:  s.Failures,
	}
	// Partitioned topics need real indexes to know which cluster matches.
	// One topic keeps the Appendix B match sampling: every file matches every
	// query either way, and a content hook would change the RNG draws.
	if s.Planted.Topics > 1 {
		opts.Content = topicContent(s.Planted.Topics)
	}
	return sim.Run(inst, opts)
}

func routingTopic(topic int) string { return fmt.Sprintf("topic%d", topic) }

// topicContent is the simulator's side of topic-partitioned content over n
// clusters: every file of cluster c is titled routingTopic(c) and every query
// asks for a uniformly random cluster's topic.
func topicContent(n int) *sim.ContentOptions {
	return &sim.ContentOptions{
		Titles:  func(cluster, owner, file int) []string { return []string{routingTopic(cluster)} },
		Queries: func(rng *stats.RNG) []string { return []string{routingTopic(rng.Intn(n))} },
	}
}

// Salts decorrelating the live arm's per-user topic draws from its arrival
// plans, and the learning warm-up's window from the measured one.
const (
	liveTopicSalt  = 0x746f70696373 // "topics"
	liveWarmupSalt = 0x7761726d7570 // "warmup"
)

// live boots the scenario's instance as a loopback fleet and measures it:
// dial the planted clients, settle, warm a learning strategy up, then replay
// one seeded window of Poisson searches for every user the model counts —
// with the scenario's kills and restarts beside them — and read the
// counters' deltas once the fleet has drained.
//
// What the scenario kills shapes the rest: only then are clients supervised
// (a watchdog, backoff and one failover lap per cycle, their losses and
// rejoins timed), and only a fleet nobody kills is drained and scraped for
// per-class deltas, since a restart resets a node's counters.
func (s *Scenario) live(inst *network.Instance, strat routing.Strategy) (LiveMeasured, error) {
	var m LiveMeasured
	p, adv := s.Planted, s.Adversary
	trust := adv != nil && adv.Trust
	killing := s.Failures != nil
	cfg := network.LiveConfig{
		Overlay:   inst.Graph,
		Partners:  p.Partners,
		Seed:      s.Seed,
		Telemetry: true,
		Node: p2p.Options{
			TTL:               p.TTL,
			MaxClients:        s.ClientCapacity,
			HeartbeatInterval: -1, // keep the ping class quiet
			DrainTimeout:      200 * time.Millisecond,
			Routing:           strat,
			Trust:             trust,
		},
	}
	if adv != nil {
		cfg.Adjust = func(c, k int, opts *p2p.Options) {
			if adv.Malicious(c, k) {
				opts.Misbehave = &p2p.MisbehaveOptions{
					Drop:    adv.Drop,
					Forge:   adv.Forge,
					BusyLie: adv.BusyLie,
					Seed:    s.Seed + uint64(c*p.Partners+k),
				}
			}
		}
	}
	f, err := launchFleet(cfg, bridge(s.Live.TimeScale), s.logf)
	if err != nil {
		return m, err
	}
	defer f.close()
	var ctrl *control.Controller
	if s.ControlInterval > 0 {
		ctrl = f.control(s.ControlInterval, s.ClientCapacity, p.TTL, s.Seed+1)
		defer ctrl.Close()
	}

	// Users are a cluster's clients, then its partners — one goroutine each,
	// so a user's topic stream needs no lock; the tallies and the failover
	// log do.
	usersPer := p.Clients + p.Partners
	var mu sync.Mutex
	lostAt := make([]time.Time, inst.Graph.N()*p.Clients)
	var recovery []float64

	// A client's ranked list is its own cluster's partners; it joins the
	// first with room and, under trust, re-homes on reputation.
	err = f.dial(p.Clients, func(c, i int) (p2p.DialOptions, []p2p.SharedFile) {
		files := []p2p.SharedFile{{Index: uint32(i + 1), Title: routingTopic(c % p.Topics)}}
		if !killing {
			return p2p.DialOptions{Trust: trust}, files
		}
		slot := c*p.Clients + i
		opts := f.supervised(s.Seed+uint64(slot), 2*p.Partners)
		opts.Trust = trust
		opts.OnEvent = func(ev p2p.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case ev.Type == p2p.EventConnLost:
				lostAt[slot] = time.Now()
			case ev.Type == p2p.EventRejoined && !lostAt[slot].IsZero():
				recovery = append(recovery, f.virtual(time.Since(lostAt[slot])))
				lostAt[slot] = time.Time{}
			}
		}
		return opts, files
	})
	if err != nil {
		return m, err
	}
	// Every node hears at least the other topics once summaries converge.
	if err := f.settle(p.Topics - 1); err != nil {
		return m, err
	}

	// matches[t] is how many planted files answer topic t.
	matches := make([]int, p.Topics)
	for c := range f.clients {
		matches[c%p.Topics] += p.Clients
	}
	window := func(seed uint64, timeline []fault, measure bool) (time.Time, []time.Time) {
		root := stats.NewRNG(seed ^ liveTopicSalt)
		topics := make([]*stats.RNG, len(f.clients)*usersPer)
		for i := range topics {
			topics[i] = root.Split(uint64(i + 1))
		}
		return f.replay(seed, usersPer, p.QueryRate, s.Live.Duration, timeline, func(c, u int) {
			t := topics[c*usersPer+u].Intn(p.Topics)
			out, issued, err := s.search(f, c, u, routingTopic(t))
			if !issued {
				return
			}
			if err != nil {
				s.logf("live query %s from c%du%d: %v", routingTopic(t), c, u, err)
			}
			if !measure {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			m.Queries++
			m.Results += len(out.Results)
			if u < p.Clients {
				m.ClientQueries++
				genuine := out.Genuine()
				m.ClientGenuine += genuine
				m.ClientBusy += out.Busy
				switch {
				case err != nil || genuine == 0:
					m.ClientLost++
				case genuine < matches[t]:
					m.ClientDegraded++
				}
			}
		})
	}
	// Learned routing needs hit history before its scores mean anything.
	if routing.Learns(strat) {
		window(s.Seed^liveWarmupSalt, nil, false)
		if err := f.drain(); err != nil {
			return m, err
		}
	}

	f.count(-1, &m)
	var base []metrics.ByClass
	if !killing {
		if base, err = f.scrape(); err != nil {
			return m, err
		}
	}
	start, kills := window(s.Seed, s.timeline(), true)
	m.Kills = kills
	if !killing {
		if err := f.drain(); err != nil {
			return m, err
		}
		// Bytes over the actual elapsed window, converted to bits per
		// virtual second — late-firing arrivals dilate elapsed time and the
		// division self-corrects for it.
		elapsed := f.virtual(time.Since(start))
		end, err := f.scrape()
		if err != nil {
			return m, err
		}
		for i, sp := range f.live.SuperPeers() {
			delta := end[i]
			delta.Merge(base[i].Scale(-1))
			m.IDs = append(m.IDs, sp.ID)
			m.ClassBps = append(m.ClassBps, delta.Scale(8/elapsed))
		}
	}
	f.count(1, &m)
	if ctrl != nil {
		m.Events = ctrl.Events()
	}
	mu.Lock()
	defer mu.Unlock()
	m.Recovery = slices.Clone(recovery)
	return m, nil
}

// timeline is the live side of Failures: each scheduled kill inside the
// window and, when it too falls inside, the slot's restart RecoveryDelay
// later, in time order.
func (s *Scenario) timeline() []fault {
	if s.Failures == nil {
		return nil
	}
	var out []fault
	for _, ev := range s.Failures.Schedule.Truncate(s.Live.Duration) {
		out = append(out, fault{at: ev.At, cluster: ev.Cluster, partner: ev.Partner})
		if back := ev.At + s.Failures.RecoveryDelay; back < s.Live.Duration {
			out = append(out, fault{at: back, restart: true, cluster: ev.Cluster, partner: ev.Partner})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// search issues user u of cluster c's search for topic and returns what it
// collected: users below Planted.Clients are the cluster's clients, the rest
// its partners. A killed partner issues nothing (issued false).
func (s *Scenario) search(f *fleet, c, u int, topic string) (out p2p.SearchOutcome, issued bool, err error) {
	var o *p2p.SearchOutcome
	if u < s.Planted.Clients {
		o, err = f.clients[c][u].SearchDetailed(topic, s.Live.Window)
	} else if n := f.live.Node(c, u-s.Planted.Clients); n != nil {
		o, err = n.SearchDetailed(topic, s.Live.Window)
	} else {
		return out, false, nil
	}
	return *o, true, err
}

// count adds sign × the fleet-wide totals of m's counter fields into m:
// once negated before the measured window and once after it, m holds the
// window's deltas. A killed slot has no counters to read.
func (f *fleet) count(sign int64, m *LiveMeasured) {
	for _, sp := range f.live.SuperPeers() {
		n := f.live.Node(sp.Cluster, sp.Partner)
		if n == nil {
			continue
		}
		st := n.Stats()
		m.Forwarded += sign * n.Metrics().QueriesForwarded.Value()
		m.ForgedDetected += sign * st.HitsForged
		m.AdmissionShed += sign * st.QueriesShedAdmission
	}
	for _, cluster := range f.clients {
		for _, cl := range cluster {
			m.Reconnects += sign * int64(cl.Reconnects())
		}
	}
}

// relErr is |got - want| / want, +Inf when only want is zero.
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / want
}
