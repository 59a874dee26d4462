package experiments

import "testing"

// TestTrustSweepGapRecovery is the acceptance criterion measured end to end:
// at 30% malicious partners, reputation-weighted selection must win back at
// least half of the lost-query gap versus the trust-oblivious baseline in
// the model, the simulator, and the live overlay.
func TestTrustSweepGapRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live overlay per cell")
	}
	leakCheck(t)
	s := trustScenario(41)
	s.Logf = t.Logf
	res, err := runTrustSweep(s, []float64{0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	off, on := res.Row(0.3, false), res.Row(0.3, true)
	if off == nil || on == nil {
		t.Fatalf("missing sweep rows: %+v", res.Rows)
	}

	// The attack must bite before recovery means anything.
	if off.ModelLost < 0.15 || off.SimLost < 0.15 || off.LiveLost < 0.15 {
		t.Fatalf("trust-off attack too weak: model %.3f, sim %.3f, live %.3f",
			off.ModelLost, off.SimLost, off.LiveLost)
	}
	for _, layer := range []struct {
		name    string
		off, on float64
	}{
		{"model", off.ModelLost, on.ModelLost},
		{"sim", off.SimLost, on.SimLost},
		{"live", off.LiveLost, on.LiveLost},
	} {
		if layer.on > 0.5*layer.off {
			t.Errorf("%s: trust recovered too little: lost %.3f (on) vs %.3f (off)",
				layer.name, layer.on, layer.off)
		}
	}
	if on.SimGenuine <= off.SimGenuine {
		t.Errorf("sim genuine recall did not improve: %.2f (on) vs %.2f (off)",
			on.SimGenuine, off.SimGenuine)
	}
	if on.LiveGenuine <= off.LiveGenuine {
		t.Errorf("live genuine recall did not improve: %.2f (on) vs %.2f (off)",
			on.LiveGenuine, off.LiveGenuine)
	}

	// Defense mechanics visible in each layer's accounting. Trust-on keeps
	// every forged result out — mostly by never routing through distrusted
	// relays at all, the audit catching whatever still arrives.
	if off.Sim.ForgedAccepted == 0 {
		t.Errorf("trust-off sim accepted no forged results: attack not exercised")
	}
	if on.Sim.ForgedAccepted != 0 {
		t.Errorf("trust-on sim accepted %d forged results", on.Sim.ForgedAccepted)
	}
	if off.Live.ForgedDetected != 0 {
		t.Errorf("trust-off live layer claims forged detection: %d", off.Live.ForgedDetected)
	}
	if on.Live.ForgedDetected == 0 {
		t.Error("trust-on live layer detected no forged hits")
	}
	if on.Live.Reconnects == 0 {
		t.Error("no live client re-homed away from its freeloading partner")
	}
	if off.Live.Reconnects != 0 {
		t.Errorf("trust-oblivious clients re-homed %d times over healthy TCP links", off.Live.Reconnects)
	}
}

// TestTrustSweepHonestBaseline: with no malicious partners, no layer loses
// queries and nobody detects a forgery.
//
// Live k = 2 floods co-partner links, so a source's co-partner can relay a
// TTL-1 copy to both hub partners ahead of the source's own TTL-2 copy. The
// live node forwards a duplicate that has more hops left than the copy it
// handled; were that copy dropped, about 1% of leaf-to-far-leaf searches
// would die at the hub.
func TestTrustSweepHonestBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live overlay per cell")
	}
	leakCheck(t)
	s := trustScenario(43)
	s.SimDuration = 600
	s.Live.Duration = 60
	s.Logf = t.Logf
	res, err := runTrustSweep(s, []float64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.ModelLost != 0 {
			t.Errorf("trust=%v: model lost %.3f with no adversaries", r.Trust, r.ModelLost)
		}
		if r.SimLost != 0 {
			t.Errorf("trust=%v: sim lost %.3f with no adversaries", r.Trust, r.SimLost)
		}
		if r.LiveLost != 0 {
			t.Errorf("trust=%v: live lost %.3f with no adversaries", r.Trust, r.LiveLost)
		}
		if r.Sim.ForgedDetected != 0 || r.Live.ForgedDetected != 0 {
			t.Errorf("trust=%v: forged detections in an honest network: sim %d live %d",
				r.Trust, r.Sim.ForgedDetected, r.Live.ForgedDetected)
		}
	}
}
