package network

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"spnet/internal/metrics"
)

// TestLiveSuperPeersStableOrder pins the enumeration contract experiments
// rely on for deterministic scrape loops and result tables: cluster-major,
// partner-minor order with IDs and addresses stable across kill/restart.
func TestLiveSuperPeersStableOrder(t *testing.T) {
	lv := NewLive(LiveConfig{Clusters: 3, Partners: 2, Seed: 5})
	if err := lv.Launch(); err != nil {
		t.Fatal(err)
	}
	defer lv.Close()

	sps := lv.SuperPeers()
	if len(sps) != 6 {
		t.Fatalf("got %d super-peers, want 6", len(sps))
	}
	for i, sp := range sps {
		wantC, wantP := i/2, i%2
		if sp.Cluster != wantC || sp.Partner != wantP {
			t.Errorf("slot %d = cluster %d partner %d, want %d/%d", i, sp.Cluster, sp.Partner, wantC, wantP)
		}
		if want := fmt.Sprintf("sp-%d-%d", wantC, wantP); sp.ID != want {
			t.Errorf("slot %d ID = %q, want %q", i, sp.ID, want)
		}
		if sp.Addr == "" {
			t.Errorf("slot %d has no address", i)
		}
		if sp.Telemetry != "" {
			t.Errorf("slot %d telemetry = %q, want empty when disabled", i, sp.Telemetry)
		}
	}

	before := sps
	if err := lv.KillSuperPeer(1, 0); err != nil {
		t.Fatal(err)
	}
	after := lv.SuperPeers()
	if len(after) != len(before) {
		t.Fatalf("enumeration changed size after kill: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("slot %d changed after kill: %+v -> %+v", i, before[i], after[i])
		}
	}
	if err := lv.RestartSuperPeer(1, 0); err != nil {
		t.Fatal(err)
	}
	restarted := lv.SuperPeers()
	for i := range before {
		if before[i] != restarted[i] {
			t.Errorf("slot %d changed after restart: %+v -> %+v", i, before[i], restarted[i])
		}
	}
}

// TestLiveTelemetry boots a telemetry-enabled network, scrapes each
// super-peer's /metrics endpoint, and checks the address survives a
// kill/restart cycle so long-running scrapers never need rediscovery.
func TestLiveTelemetry(t *testing.T) {
	lv := NewLive(LiveConfig{Clusters: 2, Partners: 1, Seed: 9, Telemetry: true})
	if err := lv.Launch(); err != nil {
		t.Fatal(err)
	}
	defer lv.Close()

	scrape := func(addr string) (map[string]float64, error) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return metrics.ParsePrometheus(resp.Body)
	}

	sps := lv.SuperPeers()
	connsKey := metrics.SeriesKey(metrics.MetricConnsOpen)
	for _, sp := range sps {
		if sp.Telemetry == "" {
			t.Fatalf("%s has no telemetry address", sp.ID)
		}
		vals, err := scrape(sp.Telemetry)
		if err != nil {
			t.Fatalf("scrape %s: %v", sp.ID, err)
		}
		if vals[connsKey] < 1 {
			t.Errorf("%s reports %v open connections, want >= 1 (overlay link)", sp.ID, vals[connsKey])
		}
	}

	pinned := sps[0].Telemetry
	if err := lv.KillSuperPeer(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := scrape(pinned); err == nil {
		t.Error("telemetry still answering after kill")
	}
	if err := lv.RestartSuperPeer(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := lv.SuperPeers()[0].Telemetry; got != pinned {
		t.Fatalf("telemetry address moved across restart: %s -> %s", pinned, got)
	}
	vals, err := scrape(pinned)
	if err != nil {
		t.Fatalf("scrape after restart: %v", err)
	}
	if _, ok := vals[metrics.SeriesKey(metrics.MetricQueriesHandled)]; !ok {
		// Key presence check keeps this robust: a fresh node may not have
		// handled queries yet, but the series must exist.
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		t.Fatalf("restarted node missing %s; scraped: %s",
			metrics.MetricQueriesHandled, strings.Join(keys, ", "))
	}
}

// TestLivePartitionBlackholesTelemetry: a partitioned super-peer's telemetry
// goes dark with the rest of its traffic, and answers again once healed.
func TestLivePartitionBlackholesTelemetry(t *testing.T) {
	lv := NewLive(LiveConfig{Clusters: 2, Partners: 1, Seed: 9, Telemetry: true})
	if err := lv.Launch(); err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	client := &http.Client{Timeout: 300 * time.Millisecond, Transport: &http.Transport{DisableKeepAlives: true}}
	addr := lv.SuperPeers()[1].Telemetry // sp-1-0

	lv.PartitionCluster(1)
	if _, err := metrics.ScrapeClassBytes(client, addr); err == nil {
		t.Error("partitioned sp-1-0 answered a scrape")
	}
	lv.HealCluster(1)
	if _, err := metrics.ScrapeClassBytes(client, addr); err != nil {
		t.Errorf("scrape after heal: %v", err)
	}
}
