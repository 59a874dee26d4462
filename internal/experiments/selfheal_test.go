package experiments

import (
	"testing"
	"time"

	"spnet/internal/network"
	"spnet/internal/p2p"
)

// tinySelfHeal is a fast drill: ~2 wall seconds per arm, sp-0-0 killed at
// 40 virtual s.
func tinySelfHeal(seed uint64) Scenario {
	s := selfHealScenario(seed, 120)
	s.Planted.QueryRate = 0.15
	s.Live.TimeScale = 60
	s.Live.Window = 50 * time.Millisecond
	return s
}

// waitFor fails t unless cond holds within await's deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	err := await(what, func() string {
		if cond() {
			return ""
		}
		return "not yet"
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSelfHealEndToEnd is the acceptance drill: kill a loaded super-peer
// whose orphans cannot re-home (survivor at exact capacity), and check the
// controller detects the death within a couple of ticks, promotes
// the survivor, and recovers most of the lost-query gap versus the
// controller-off arm. Leak-checked: every goroutine both arms spawn must be
// gone afterwards.
func TestSelfHealEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live network run")
	}
	leakCheck(t)
	s := tinySelfHeal(17)
	off, err := runThreeWay(s)
	if err != nil {
		t.Fatalf("controller off: %v", err)
	}
	s.ControlInterval = 10
	on, err := runThreeWay(s)
	if err != nil {
		t.Fatalf("controller on: %v", err)
	}
	if off.Live.Queries == 0 || on.Live.Queries == 0 {
		t.Fatalf("no queries issued: off=%d on=%d", off.Live.Queries, on.Live.Queries)
	}
	detect, reconfig, acked := healTimes(on.Live, s.Live.TimeScale)
	if detect < 0 {
		t.Fatalf("death never detected; events: %v", on.Live.Events)
	}
	// Detection: the kill resets the node's connections before it closes,
	// so no bye arrives, but the control link drops at once and the next
	// tick declares the death — allow three ticks for tick alignment and
	// single-CPU -race scheduler slack.
	if detect > 3*10 {
		t.Errorf("detection took %.0f virtual s, want within ~3 ticks (30)", detect)
	}
	if reconfig < 0 {
		t.Fatalf("promotion never acked; events: %v", on.Live.Events)
	}
	if acked == 0 {
		t.Error("no directives acked")
	}
	// The healing claim: the controller-on arm recovers at least half the
	// lost-query gap opened by the controller-off arm.
	offLost, onLost := liveLost(off.Live), liveLost(on.Live)
	if offLost > 0.05 && onLost > offLost*0.5+0.02 {
		t.Errorf("controller recovered too little: lost on=%.1f%% off=%.1f%%", 100*onLost, 100*offLost)
	}
	t.Logf("lost: off=%.1f%% on=%.1f%% (sim %.1f%%), detect=%.0f vs, reconfig=%.0f vs, directives=%d",
		100*offLost, 100*onLost, 100*simLost(on.Sim), detect, reconfig, acked)
}

// TestSelfHealControllerPartition drills graceful degradation through the
// live harness: partition the controller from the whole fleet, check nodes
// keep serving queries on their last-known configuration with zero config
// churn, then heal and check the control plane reconverges.
func TestSelfHealControllerPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("live network run")
	}
	leakCheck(t)
	f, err := launchFleet(network.LiveConfig{
		Clusters: 2,
		Partners: 2,
		Seed:     23,
		Node:     p2p.Options{MaxClients: 4, TTL: 7, DrainTimeout: 100 * time.Millisecond},
	}, 1, t.Logf)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	defer f.close()
	live := f.live
	// At one virtual second per wall second: a 50 ms tick.
	ctrl := f.control(0.05, 4, 7, 24)
	defer ctrl.Close()

	waitFor(t, "all control links up", func() bool {
		for _, s := range ctrl.Status() {
			if !s.LinkUp || s.Dead {
				return false
			}
		}
		return true
	})

	live.PartitionController()
	// The partition blackholes every control link: each falls silent, goes
	// down, and its node is declared dead.
	waitFor(t, "every control link down", func() bool {
		for _, s := range ctrl.Status() {
			if s.LinkUp || !s.Dead {
				return false
			}
		}
		return true
	})

	// Nodes keep serving on last-known config while the controller is dark.
	cl, err := p2p.DialClient(live.ClusterAddrs(0)[0], []p2p.SharedFile{{Index: 1, Title: "dark mode manual"}})
	if err != nil {
		t.Fatalf("DialClient during partition: %v", err)
	}
	defer cl.Close()
	waitFor(t, "query served during partition", func() bool {
		res, err := cl.Search("dark", 100*time.Millisecond)
		return err == nil && len(res) == 1
	})
	for _, sp := range live.SuperPeers() {
		n := live.Node(sp.Cluster, sp.Partner)
		if n == nil {
			continue
		}
		if ns := n.Stats(); ns.TTL != 7 || ns.MaxClients != 4 {
			t.Fatalf("%s config thrashed during partition: ttl=%d maxClients=%d", sp.ID, ns.TTL, ns.MaxClients)
		}
	}

	// Heal: links re-establish and the slots declared dead come back. Every
	// node died in the partition, so none is a survivor to promote for
	// another: no config may have moved.
	live.HealController()
	waitFor(t, "control plane reconverged", func() bool {
		for _, s := range ctrl.Status() {
			if s.Dead || !s.LinkUp {
				return false
			}
		}
		return true
	})
	for _, sp := range live.SuperPeers() {
		n := live.Node(sp.Cluster, sp.Partner)
		if n == nil {
			continue
		}
		if ns := n.Stats(); ns.TTL != 7 || ns.MaxClients != 4 {
			t.Fatalf("%s config changed across partition: ttl=%d maxClients=%d", sp.ID, ns.TTL, ns.MaxClients)
		}
	}
}

// TestSelfHealSchedulesDeterministic pins what makes the drill's off and on
// arms a paired comparison: the client arrival plans are bit-deterministic
// in the seed, and the live timeline is the one kill a third of the way in,
// with no restart inside the window.
func TestSelfHealSchedulesDeterministic(t *testing.T) {
	s := tinySelfHeal(5)
	usersPer := s.Planted.Clients + s.Planted.Partners
	a := liveArrivals(s.Seed, usersPer, 1, 2, s.Planted.QueryRate, s.Live.Duration)
	b := liveArrivals(s.Seed, usersPer, 1, 2, s.Planted.QueryRate, s.Live.Duration)
	if len(a) == 0 {
		t.Fatal("no arrivals drawn")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
	want := []fault{{at: 40, cluster: 0, partner: 0}}
	if got := s.timeline(); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("timeline = %+v, want %+v", got, want)
	}
}
