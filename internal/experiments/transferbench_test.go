package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestTransferBenchEndToEnd is the acceptance drill for the transfer plane:
// live multi-source throughput must land within 30% of the analytical
// prediction, the transfer-class wire bytes the super-peers meter must equal
// the protocol model's exactly, and the killed-source download must complete
// with the hash intact.
func TestTransferBenchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live network run")
	}
	leakCheck(t)
	// 512 KiB from 3 sources at 256 KiB/s predicts a ~0.67s clean download,
	// about 2-3 wall seconds with the failover drill.
	res, err := runTransferBench(11, 512<<10)
	if err != nil {
		t.Fatalf("runTransferBench: %v", err)
	}
	if res.Sources != 3 {
		t.Errorf("overlay query surfaced %d sources, want 3", res.Sources)
	}
	if e := res.ThroughputRelErr(); e > 0.30 {
		t.Errorf("live throughput %.0f B/s vs predicted %.0f B/s: rel err %.1f%%, want <= 30%%",
			res.Clean.ThroughputBps, res.Pred.ThroughputBps, 100*e)
	}
	if res.WireMetered != float64(res.Pred.WireBytes) {
		t.Errorf("metered transfer wire bytes %.0f, want exactly the predicted %d",
			res.WireMetered, res.Pred.WireBytes)
	}
	if res.Kill.Recovery <= 0 {
		t.Errorf("failover drill recovery %v, want > 0", res.Kill.Recovery)
	}
	if res.Kill.Result.Retried == 0 {
		t.Error("killed source's outstanding chunks were never re-queued")
	}
	t.Logf("throughput: predicted %.0f live %.0f (err %.1f%%); wire err %.1f%%; kill at %v, recovery %v",
		res.Pred.ThroughputBps, res.Clean.ThroughputBps, 100*res.ThroughputRelErr(),
		100*res.WireRelErr(), res.Kill.KillAt.Round(time.Millisecond),
		res.Kill.Recovery.Round(time.Millisecond))

	rep := Format(res.Report)
	for _, want := range []string{"transferbench", "failover drill", "throughput"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
