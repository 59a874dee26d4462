package experiments

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"spnet/internal/link"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/routing"
	"spnet/internal/stats"
)

// bridge is the virtual→wall clock every live cell runs on, as virtual
// seconds per wall second: schedules are drawn in virtual seconds (the
// simulator's unit) and divided by it to get wall-clock times, so a
// 600-virtual-second regime replays in 5 wall seconds at 120.
type bridge float64

// wall converts virtual seconds to wall-clock duration.
func (b bridge) wall(virtual float64) time.Duration {
	return time.Duration(virtual / float64(b) * float64(time.Second))
}

// wallClamped is wall with a floor, for knobs (heartbeats, backoff) that
// stop making sense below scheduler granularity.
func (b bridge) wallClamped(virtual float64, floor time.Duration) time.Duration {
	return max(b.wall(virtual), floor)
}

// virtual converts a measured wall-clock duration back to virtual seconds.
func (b bridge) virtual(d time.Duration) float64 { return d.Seconds() * float64(b) }

// supervised returns the options of a client that recovers from a dead
// super-peer on its own, timed in virtual seconds: a 5 s watchdog, 1–10 s
// backoff, and failover cycles of one quick lap (attempts) over its ranked
// partner list — the watchdog retries.
func (b bridge) supervised(seed uint64, attempts int) p2p.DialOptions {
	return p2p.DialOptions{
		Seed:              seed,
		HeartbeatInterval: b.wallClamped(5, 20*time.Millisecond),
		MaxAttempts:       attempts,
		Backoff: link.Backoff{
			Initial: b.wallClamped(1, 5*time.Millisecond),
			Max:     b.wallClamped(10, 25*time.Millisecond),
		},
	}
}

// fleet is one live cell: a network.Live wired from an overlay graph, the
// grid of clients dialed into its clusters, and the clock the cell's
// schedules replay on. It owns what every live experiment repeats — boot,
// dial, wait for the fleet to be whole, replay arrivals and faults, scrape —
// so an experiment is left with its scenario and its measurements.
type fleet struct {
	bridge
	live     *network.Live
	partners int
	logf     func(format string, args ...any)
	// clients[c][i] is client i of cluster c, filled by dial.
	clients [][]*p2p.Client
	// planted[c] is how many files cluster c's super-peers should index once
	// every join has landed: what they indexed at launch (a served catalog)
	// plus the dialed clients' files.
	planted []int
	// summaries is whether the fleet's routing strategy advertises
	// summaries, which settle then waits for.
	summaries bool
}

// launchFleet boots cfg's network on the given clock (0 for cells that
// measure in wall time only). The caller closes the fleet.
func launchFleet(cfg network.LiveConfig, clock bridge, logf func(string, ...any)) (*fleet, error) {
	live := network.NewLive(cfg)
	if err := live.Launch(); err != nil {
		return nil, err
	}
	f := &fleet{
		bridge:    clock,
		live:      live,
		partners:  len(live.ClusterAddrs(0)),
		logf:      logf,
		planted:   make([]int, live.Overlay().N()),
		summaries: routing.UsesSummaries(cfg.Node.Routing),
	}
	// A node serving a content catalog indexes it from the start.
	for c := range f.planted {
		for k := 0; k < f.partners; k++ {
			f.planted[c] += live.Node(c, k).Stats().IndexedFiles
		}
	}
	return f, nil
}

// close tears down the clients, then the network.
func (f *fleet) close() {
	for _, cluster := range f.clients {
		for _, cl := range cluster {
			cl.Close()
		}
	}
	f.live.Close()
}

// dial joins perCluster clients to every cluster. slot returns the options
// and shared files of cluster c's client i; empty Addrs means the cluster's
// ranked partner list.
func (f *fleet) dial(perCluster int, slot func(c, i int) (p2p.DialOptions, []p2p.SharedFile)) error {
	f.clients = make([][]*p2p.Client, len(f.planted))
	for c := range f.clients {
		for i := 0; i < perCluster; i++ {
			opts, files := slot(c, i)
			if len(opts.Addrs) == 0 {
				opts.Addrs = f.live.ClusterAddrs(c)
			}
			cl, err := p2p.DialClientOptions(opts, files)
			if err != nil {
				return fmt.Errorf("live client %d/%d: %w", c, i, err)
			}
			f.clients[c] = append(f.clients[c], cl)
			f.planted[c] += len(files)
		}
	}
	return nil
}

// settle blocks until the fleet is whole, judged by what the nodes report
// rather than by elapsed time: every super-peer holds its overlay links
// (graph degree × partners, plus its co-partners — the accepting side of a
// link registers after ConnectPeer returns), every cluster indexes the files
// planted in it (joins are one-way messages), and, under a summary-exchanging
// strategy, every link has advertised and each node has heard at least
// summaryTerms terms in all.
func (f *fleet) settle(summaryTerms int) error {
	return await("settle", func() string { return f.unsettled(summaryTerms) })
}

// await polls pending every 5 ms until it names nothing left to wait for,
// giving up after 10 s with what it last named.
func await(what string, pending func() string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		p := pending()
		if p == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live fleet did not %s: %s", what, p)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// unsettled names the first thing settle is still waiting for, "" when
// nothing.
func (f *fleet) unsettled(summaryTerms int) string {
	g := f.live.Overlay()
	for c, planted := range f.planted {
		links := g.Degree(c)*f.partners + f.partners - 1
		indexed := 0
		for k := 0; k < f.partners; k++ {
			n := f.live.Node(c, k)
			if n == nil {
				return fmt.Sprintf("sp-%d-%d is down", c, k)
			}
			st := n.Stats()
			if st.Peers != links {
				return fmt.Sprintf("sp-%d-%d has %d peer links, want %d", c, k, st.Peers, links)
			}
			indexed += st.IndexedFiles
			if !f.summaries {
				continue
			}
			if _, adverts, terms := n.RoutingInfo(); adverts != links || terms < summaryTerms {
				return fmt.Sprintf("sp-%d-%d heard %d summaries with %d terms, want %d with >= %d",
					c, k, adverts, terms, links, summaryTerms)
			}
		}
		if indexed != planted {
			return fmt.Sprintf("cluster %d indexes %d files, want %d", c, indexed, planted)
		}
	}
	return ""
}

// liveArrivals draws one user's query arrival times in virtual seconds: a
// Poisson process at rate queries/virtual-second out to duration. The stream
// is split per (cluster, user) slot, so the full arrival plan is
// deterministic in the seed and independent of scheduling.
func liveArrivals(seed uint64, usersPer, cluster, user int, rate, duration float64) []float64 {
	rng := stats.NewRNG(seed).Split(uint64(cluster*usersPer + user + 1))
	var out []float64
	if rate <= 0 {
		return out
	}
	t := rng.ExpFloat64() / rate
	for t < duration {
		out = append(out, t)
		t += rng.ExpFloat64() / rate
	}
	return out
}

// fault is one event of a cell's failure timeline: at `at` virtual seconds,
// kill or restart one super-peer slot.
type fault struct {
	at               float64
	restart          bool
	cluster, partner int
}

// replay plays one measurement window of `duration` virtual seconds. Each of
// the usersPer users of every cluster calls issue(c, u) at its own seeded
// Poisson arrival times, one goroutine per user, so issue may keep per-user
// state without locking; the timeline's faults (ordered by time) fire beside
// them. It returns once every arrival plan has played out — a late query
// just fires late — and the window is over, with the fault driver stopped:
// the window's start and the wall time of every kill that took.
func (f *fleet) replay(seed uint64, usersPer int, rate, duration float64, timeline []fault, issue func(c, u int)) (start time.Time, kills []time.Time) {
	start = time.Now()
	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		for _, ev := range timeline {
			if wait := time.Until(start.Add(f.wall(ev.at))); wait > 0 {
				select {
				case <-time.After(wait):
				case <-stop:
					return
				}
			}
			if ev.restart {
				// "Still running" is benign: a schedule may kill a partner
				// again inside its own recovery window.
				if err := f.live.RestartSuperPeer(ev.cluster, ev.partner); err != nil {
					f.logf("live: restart sp-%d-%d: %v", ev.cluster, ev.partner, err)
				}
				continue
			}
			at := time.Now()
			if err := f.live.KillSuperPeer(ev.cluster, ev.partner); err != nil {
				f.logf("live: kill sp-%d-%d: %v", ev.cluster, ev.partner, err)
				continue
			}
			kills = append(kills, at)
		}
	}()

	var users sync.WaitGroup
	for c := range f.planted {
		for u := 0; u < usersPer; u++ {
			users.Add(1)
			go func(c, u int) {
				defer users.Done()
				for _, at := range liveArrivals(seed, usersPer, c, u, rate, duration) {
					time.Sleep(time.Until(start.Add(f.wall(at))))
					issue(c, u)
				}
			}(c, u)
		}
	}
	users.Wait()
	time.Sleep(time.Until(start.Add(f.wall(duration))))
	close(stop)
	driver.Wait()
	return start, kills
}

// drain blocks until the fleet has gone quiet — no super-peer's socket byte
// counters move across one poll — so every in-flight forward and relayed hit
// has landed before a closing counter read.
func (f *fleet) drain() error {
	last := int64(-1)
	return await("drain", func() string {
		now := f.socketBytes()
		if now == last {
			return ""
		}
		moved := now - last
		last = now
		return fmt.Sprintf("%d socket bytes moved since the last poll", moved)
	})
}

// socketBytes sums the raw socket bytes every running super-peer has moved.
func (f *fleet) socketBytes() int64 {
	var total int64
	for _, sp := range f.live.SuperPeers() {
		if n := f.live.Node(sp.Cluster, sp.Partner); n != nil {
			m := n.Metrics()
			total += m.ConnBytes[metrics.DirIn].Value() + m.ConnBytes[metrics.DirOut].Value()
		}
	}
	return total
}

// scrape reads every super-peer's per-class wire-byte totals off its
// telemetry endpoint, in the harness's stable slot order.
func (f *fleet) scrape() ([]metrics.ByClass, error) {
	sps := f.live.SuperPeers()
	out := make([]metrics.ByClass, len(sps))
	for i, sp := range sps {
		var err error
		if out[i], err = metrics.ScrapeClassBytes(http.DefaultClient, sp.Telemetry); err != nil {
			return nil, err
		}
	}
	return out, nil
}
