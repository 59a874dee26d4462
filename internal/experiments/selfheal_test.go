package experiments

import (
	"runtime"
	"testing"
	"time"

	"spnet/internal/control"
	"spnet/internal/link"
	"spnet/internal/network"
	"spnet/internal/p2p"
)

// tinySelfHealParams is a fast configuration: ~2 wall seconds per live arm.
func tinySelfHealParams(seed uint64) SelfHealParams {
	return SelfHealParams{
		Clusters:          2,
		Partners:          2,
		ClientsPerCluster: 4,
		Duration:          120,
		TimeScale:         60,
		QueryRate:         0.15,
		QueryWindow:       50 * time.Millisecond,
		KillAt:            40,
		ScrapeInterval:    10,
		Seed:              seed,
	}
}

// waitUntil polls cond with a generous deadline (CI is -race on one CPU).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSelfHealEndToEnd is the acceptance drill: kill a loaded super-peer
// whose orphans cannot re-home (survivor at exact capacity), and check the
// controller detects the death within a couple of scrape intervals, promotes
// the survivor, and recovers most of the lost-query gap versus the
// controller-off arm. Leak-checked: every goroutine both arms spawn must be
// gone afterwards.
func TestSelfHealEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live network run")
	}
	before := runtime.NumGoroutine()

	res, err := RunSelfHealResult(tinySelfHealParams(17))
	if err != nil {
		t.Fatalf("RunSelfHealResult: %v", err)
	}
	if res.Off.Issued == 0 || res.On.Issued == 0 {
		t.Fatalf("no queries issued: off=%d on=%d", res.Off.Issued, res.On.Issued)
	}
	if res.DetectVirtual < 0 {
		t.Fatalf("death never detected; events: %v", res.Events)
	}
	// Detection: the kill deregisters gracefully, so the controller should
	// notice within roughly one decision tick — allow three for tick
	// alignment and single-CPU -race scheduler slack.
	if res.DetectVirtual > 3*10 {
		t.Errorf("detection took %.0f virtual s, want within ~3 scrape intervals (30)", res.DetectVirtual)
	}
	if res.ReconfigVirtual < 0 {
		t.Fatalf("promotion never acked; events: %v", res.Events)
	}
	if res.DirectivesAcked == 0 {
		t.Error("no directives acked")
	}
	// The healing claim: the controller-on arm recovers at least half the
	// lost-query gap opened by the controller-off arm.
	if res.Off.LostFrac > 0.05 && res.On.LostFrac > res.Off.LostFrac*0.5+0.02 {
		t.Errorf("controller recovered too little: lost on=%.1f%% off=%.1f%%",
			100*res.On.LostFrac, 100*res.Off.LostFrac)
	}

	// Leak check: both arms must wind down cleanly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("lost: off=%.1f%% on=%.1f%%, detect=%.0f vs, reconfig=%.0f vs, directives=%d",
		100*res.Off.LostFrac, 100*res.On.LostFrac, res.DetectVirtual, res.ReconfigVirtual, res.DirectivesAcked)
}

// TestSelfHealControllerPartition drills graceful degradation through the
// live harness: partition the controller from the whole fleet, check nodes
// keep serving queries on their last-known configuration with zero config
// churn, then heal and check the control plane reconverges.
func TestSelfHealControllerPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("live network run")
	}
	live := network.NewLive(network.LiveConfig{
		Clusters:  2,
		Partners:  2,
		Seed:      23,
		Telemetry: true,
		Node:      p2p.Options{MaxClients: 4, TTL: 7, DrainTimeout: 100 * time.Millisecond},
	})
	if err := live.Launch(); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer live.Close()

	var nodes []control.NodeConfig
	for _, sp := range live.SuperPeers() {
		nodes = append(nodes, control.NodeConfig{
			ID: sp.ID, Addr: sp.Addr, Telemetry: sp.Telemetry,
			Cluster: sp.Cluster, Partner: sp.Partner,
		})
	}
	ctrl := control.New(control.Options{
		Nodes:          nodes,
		ScrapeInterval: 50 * time.Millisecond,
		RPCTimeout:     300 * time.Millisecond,
		DialTimeout:    300 * time.Millisecond,
		Backoff:        link.Backoff{Initial: 20 * time.Millisecond, Max: 100 * time.Millisecond},
		Seed:           24,
		ClientCapacity: 4,
		BaseTTL:        7,
		Dial:           live.Faults().Dialer(network.ControllerLabel),
	})
	ctrl.Start()
	defer ctrl.Close()

	allLinked := func() bool {
		for _, s := range ctrl.Status() {
			if !s.LinkUp || s.Dead {
				return false
			}
		}
		return true
	}
	waitUntil(t, "all control links up", allLinked)

	live.PartitionController()
	waitUntil(t, "scrapes failing", func() bool {
		for _, s := range ctrl.Status() {
			if s.ScrapeFails > 0 {
				return true
			}
		}
		return false
	})

	// Nodes keep serving on last-known config while the controller is dark.
	cl, err := p2p.DialClient(live.ClusterAddrs(0)[0], []p2p.SharedFile{{Index: 1, Title: "dark mode manual"}})
	if err != nil {
		t.Fatalf("DialClient during partition: %v", err)
	}
	defer cl.Close()
	waitUntil(t, "query served during partition", func() bool {
		res, err := cl.Search("dark", 100*time.Millisecond)
		return err == nil && len(res) == 1
	})
	for _, sp := range live.SuperPeers() {
		n := live.Node(sp.Cluster, sp.Partner)
		if n == nil {
			continue
		}
		if _, ttl, maxClients := n.ControlState(); ttl != 7 || maxClients != 4 {
			t.Fatalf("%s config thrashed during partition: ttl=%d maxClients=%d", sp.ID, ttl, maxClients)
		}
	}

	// Heal: scrapes recover and any spuriously-dead slots come back.
	live.HealController()
	waitUntil(t, "control plane reconverged", func() bool {
		for _, s := range ctrl.Status() {
			if s.Dead || !s.LinkUp || s.ScrapeFails > 0 {
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
		if _, ttl, maxClients := n.ControlState(); ttl != 7 || maxClients != 4 {
			t.Fatalf("%s config changed across partition: ttl=%d maxClients=%d", sp.ID, ttl, maxClients)
		}
	}
}

// TestSelfHealSchedulesDeterministic pins that the experiment's client
// arrival plans are bit-deterministic in the seed — the property that makes
// the off arm replayable.
func TestSelfHealSchedulesDeterministic(t *testing.T) {
	p := tinySelfHealParams(5)
	p.setDefaults()
	a := liveArrivals(p.Seed, p.ClientsPerCluster, 1, 2, p.QueryRate, p.Duration)
	b := liveArrivals(p.Seed, p.ClientsPerCluster, 1, 2, p.QueryRate, p.Duration)
	if len(a) == 0 {
		t.Fatal("no arrivals drawn")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
	if got := rotate([]string{"a", "b", "c"}, 1); got[0] != "b" || got[1] != "c" || got[2] != "a" {
		t.Fatalf("rotate = %v", got)
	}
}
