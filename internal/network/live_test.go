package network

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"spnet/internal/link"
	"spnet/internal/p2p"
	"spnet/internal/topology"
)

func waitLive(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

var liveBackoff = link.Backoff{Initial: 20 * time.Millisecond, Max: 100 * time.Millisecond}

// TestLiveKillMidSearchRecovery is the end-to-end churn scenario: a client's
// super-peer is killed mid-search; the client fails over to the redundant
// partner (paper §3.2), re-joins, and its next search again reaches content
// on a remote cluster through the overlay. Recovery time is measured from
// connection loss to re-join.
func TestLiveKillMidSearchRecovery(t *testing.T) {
	lv := NewLive(LiveConfig{Clusters: 2, Partners: 2, Seed: 77})
	if err := lv.Launch(); err != nil {
		t.Fatal(err)
	}
	defer lv.Close()

	provider, err := p2p.DialClient(lv.ClusterAddrs(1)[0], []p2p.SharedFile{
		{Index: 3, Title: "remote treasure"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer provider.Close()
	waitLive(t, "provider indexed", func() bool {
		return lv.Node(1, 0).Stats().IndexedFiles == 1
	})

	var evmu sync.Mutex
	var lostAt, rejoinedAt time.Time
	cl, err := p2p.DialClientOptions(p2p.DialOptions{
		Addrs:   lv.ClusterAddrs(0),
		Backoff: liveBackoff,
		Seed:    7,
		OnEvent: func(e p2p.Event) {
			evmu.Lock()
			defer evmu.Unlock()
			switch e.Type {
			case p2p.EventConnLost:
				if lostAt.IsZero() {
					lostAt = time.Now()
				}
			case p2p.EventRejoined:
				rejoinedAt = time.Now()
			}
		},
	}, []p2p.SharedFile{{Index: 1, Title: "local copy"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitLive(t, "client joined", func() bool {
		return lv.Node(0, 0).Stats().IndexedFiles == 1
	})

	// Sanity: the overlay search works before the crash.
	r, err := cl.Search("treasure", 500*time.Millisecond)
	if err != nil || len(r) != 1 {
		t.Fatalf("pre-crash search = %+v, %v", r, err)
	}

	go func() {
		time.Sleep(50 * time.Millisecond)
		lv.KillSuperPeer(0, 0)
	}()
	if _, err := cl.Search("treasure", 2*time.Second); err == nil {
		t.Fatal("search across the killed super-peer reported clean completion")
	}

	// Failover to the redundant partner, then the overlay search works
	// again end to end.
	r, err = cl.Search("treasure", time.Second)
	if err != nil {
		t.Fatalf("post-failover search: %v", err)
	}
	if len(r) != 1 || r[0].FileIndex != 3 {
		t.Fatalf("post-failover results = %+v, want remote file 3", r)
	}
	if got, want := cl.SuperPeerAddr(), lv.ClusterAddrs(0)[1]; got != want {
		t.Errorf("client on %s, want redundant partner %s", got, want)
	}
	waitLive(t, "client re-indexed on partner", func() bool {
		return lv.Node(0, 1).Stats().IndexedFiles == 1
	})

	evmu.Lock()
	recovery := rejoinedAt.Sub(lostAt)
	evmu.Unlock()
	if lostAt.IsZero() || rejoinedAt.IsZero() {
		t.Fatal("failover events not observed")
	}
	if recovery <= 0 || recovery > 2*time.Second {
		t.Errorf("measured recovery time %v, want a small positive duration", recovery)
	}
	t.Logf("measured recovery time (conn lost -> rejoined): %v", recovery)
}

// TestLiveRestartRejoinsOverlay checks RestartSuperPeer: the slot comes back
// on its original address and re-establishes its overlay links.
func TestLiveRestartRejoinsOverlay(t *testing.T) {
	lv := NewLive(LiveConfig{Clusters: 2, Partners: 2, Seed: 5})
	if err := lv.Launch(); err != nil {
		t.Fatal(err)
	}
	defer lv.Close()

	addr := lv.ClusterAddrs(0)[0]
	if err := lv.KillSuperPeer(0, 0); err != nil {
		t.Fatal(err)
	}
	if lv.Node(0, 0) != nil {
		t.Fatal("killed slot still reports a node")
	}
	if err := lv.KillSuperPeer(0, 0); err == nil {
		t.Error("double kill reported success")
	}
	// The survivors notice the crash (TCP reset) and shed the links.
	waitLive(t, "links shed", func() bool {
		return lv.Node(0, 1).Stats().Peers == 2 && lv.Node(1, 0).Stats().Peers == 2
	})

	if err := lv.RestartSuperPeer(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := lv.ClusterAddrs(0)[0]; got != addr {
		t.Errorf("restarted on %s, want original address %s", got, addr)
	}
	// Co-partner plus both partners of the adjacent cluster.
	waitLive(t, "overlay re-joined", func() bool {
		return lv.Node(0, 0).Stats().Peers == 3
	})
}

// TestLiveAllPartnersDown drives the supervised client into the worst case:
// every ranked redundant partner of its cluster is dead. The failover cycle
// must respect the backoff cap, terminate with EventGaveUp (Search surfacing
// ErrNoSuperPeer), and — because the watchdog keeps retrying each heartbeat —
// recover on its own once RestartSuperPeer brings a partner back.
func TestLiveAllPartnersDown(t *testing.T) {
	lv := NewLive(LiveConfig{Clusters: 2, Partners: 2, Seed: 13})
	if err := lv.Launch(); err != nil {
		t.Fatal(err)
	}
	defer lv.Close()

	provider, err := p2p.DialClient(lv.ClusterAddrs(1)[0], []p2p.SharedFile{
		{Index: 5, Title: "phoenix prize"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer provider.Close()
	waitLive(t, "provider indexed", func() bool {
		return lv.Node(1, 0).Stats().IndexedFiles == 1
	})

	backoff := link.Backoff{Initial: 5 * time.Millisecond, Max: 25 * time.Millisecond}
	var evmu sync.Mutex
	var events []p2p.Event
	cl, err := p2p.DialClientOptions(p2p.DialOptions{
		Addrs:             lv.ClusterAddrs(0),
		Backoff:           backoff,
		MaxAttempts:       4,
		HeartbeatInterval: 30 * time.Millisecond,
		Seed:              3,
		OnEvent: func(e p2p.Event) {
			evmu.Lock()
			events = append(events, e)
			evmu.Unlock()
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Kill the whole ranked list: both partners of cluster 0.
	if err := lv.KillSuperPeer(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := lv.KillSuperPeer(0, 1); err != nil {
		t.Fatal(err)
	}

	// With nothing to fail over to, the cycle exhausts MaxAttempts and
	// Search surfaces the terminal error. The first Search may instead die
	// on the half-closed connection, so retry until the typed error shows.
	waitLive(t, "search reports ErrNoSuperPeer", func() bool {
		_, err := cl.Search("prize", 100*time.Millisecond)
		return errors.Is(err, p2p.ErrNoSuperPeer)
	})

	evmu.Lock()
	var backoffs, gaveUp int
	for _, e := range events {
		switch e.Type {
		case p2p.EventBackoff:
			backoffs++
			if e.Delay <= 0 || e.Delay > backoff.Max {
				t.Errorf("backoff delay %v outside (0, %v]", e.Delay, backoff.Max)
			}
		case p2p.EventGaveUp:
			gaveUp++
			if !errors.Is(e.Err, p2p.ErrNoSuperPeer) {
				t.Errorf("EventGaveUp err = %v, want ErrNoSuperPeer", e.Err)
			}
		}
	}
	evmu.Unlock()
	if backoffs == 0 {
		t.Error("no EventBackoff observed across the failover cycle")
	}
	if gaveUp == 0 {
		t.Error("no EventGaveUp observed with every partner down")
	}

	// Recovery: restart one partner; the watchdog's periodic failover
	// reconnects and re-joins without any new Search being needed.
	if err := lv.RestartSuperPeer(0, 0); err != nil {
		t.Fatal(err)
	}
	waitLive(t, "client rejoined restarted partner", func() bool {
		evmu.Lock()
		defer evmu.Unlock()
		for _, e := range events {
			if e.Type == p2p.EventRejoined {
				return true
			}
		}
		return false
	})
	// The restarted super-peer re-links the overlay, so a search reaches
	// the remote cluster's content again end to end.
	waitLive(t, "post-recovery search", func() bool {
		r, err := cl.Search("prize", 300*time.Millisecond)
		return err == nil && len(r) == 1 && r[0].FileIndex == 5
	})
}

// TestLivePartitionCluster checks PartitionCluster/HealCluster: a
// partitioned cluster's content disappears from search results — without
// errors, queries into the partition just go dark — and healing restores it.
func TestLivePartitionCluster(t *testing.T) {
	lv := NewLive(LiveConfig{Clusters: 2, Partners: 1, Seed: 9})
	if err := lv.Launch(); err != nil {
		t.Fatal(err)
	}
	defer lv.Close()

	provider, err := p2p.DialClient(lv.ClusterAddrs(1)[0], []p2p.SharedFile{
		{Index: 8, Title: "partitioned prize"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer provider.Close()
	waitLive(t, "provider indexed", func() bool {
		return lv.Node(1, 0).Stats().IndexedFiles == 1
	})

	search := func() int {
		out, err := lv.Node(0, 0).SearchDetailed("prize", 300*time.Millisecond)
		if err != nil {
			t.Fatalf("SearchDetailed: %v", err)
		}
		return len(out.Results)
	}
	if n := search(); n != 1 {
		t.Fatalf("pre-partition results = %d, want 1", n)
	}

	lv.PartitionCluster(1)
	if n := search(); n != 0 {
		t.Errorf("results from a partitioned cluster = %d, want 0", n)
	}

	lv.HealCluster(1)
	// The healed link may deliver the stale query first; retry briefly.
	waitLive(t, "post-heal search", func() bool { return search() == 1 })
}

// TestLiveWiresOverlay checks that the fleet's links are the overlay's edges,
// whatever the overlay: the default ring (whose 1-, 2- and 3-cluster cases
// have no, one shared, and coinciding wrap-around links), a star and a
// clique. Every super-peer must hold degree × partners + co-partner links,
// a TTL-1 search from each cluster must reach exactly its neighbors'
// content, and a killed and restarted hub partner must get its links back.
func TestLiveWiresOverlay(t *testing.T) {
	ring := func(n int) LiveConfig { return LiveConfig{Clusters: n, Partners: 1} }
	for _, tc := range []struct {
		name  string
		cfg   LiveConfig
		links [][]int // links[c]: the clusters c must be wired to
	}{
		{"ring1", ring(1), [][]int{{}}},
		{"ring2", ring(2), [][]int{{1}, {0}}},
		{"ring3", ring(3), [][]int{{1, 2}, {0, 2}, {0, 1}}},
		{"ring4", ring(4), [][]int{{1, 3}, {0, 2}, {1, 3}, {0, 2}}},
		{"star", LiveConfig{Overlay: topology.Star(3), Partners: 2}, [][]int{{1, 2, 3}, {0}, {0}, {0}}},
		{"clique", LiveConfig{Overlay: topology.NewClique(4), Partners: 1}, [][]int{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.cfg.Partners
			tc.cfg.Seed = 21
			tc.cfg.Node = p2p.Options{TTL: 1, HeartbeatInterval: -1, DrainTimeout: 50 * time.Millisecond}
			lv := NewLive(tc.cfg)
			if err := lv.Launch(); err != nil {
				t.Fatal(err)
			}
			defer lv.Close()
			whole := func() bool {
				for c, nbrs := range tc.links {
					for p := 0; p < k; p++ {
						if lv.Node(c, p).Stats().Peers != len(nbrs)*k+k-1 {
							return false
						}
					}
				}
				return true
			}
			waitLive(t, "overlay links", whole)

			for c := range tc.links {
				cl, err := p2p.DialClient(lv.ClusterAddrs(c)[0], []p2p.SharedFile{
					{Index: uint32(c), Title: fmt.Sprintf("probe c%d", c)},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				n := lv.Node(c, 0)
				waitLive(t, "probe indexed", func() bool { return n.Stats().IndexedFiles == 1 })
			}
			for c, nbrs := range tc.links {
				res, err := lv.Node(c, 0).Search("probe", 50*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				var got []int
				for _, r := range res {
					got = append(got, int(r.FileIndex))
				}
				slices.Sort(got)
				want := append([]int{c}, nbrs...)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Errorf("TTL-1 search from cluster %d reached clusters %v, want %v", c, got, want)
				}
			}

			if err := lv.KillSuperPeer(0, 0); err != nil {
				t.Fatal(err)
			}
			if err := lv.RestartSuperPeer(0, 0); err != nil {
				t.Fatal(err)
			}
			waitLive(t, "overlay links after restart", whole)
		})
	}
}
