package analysis

import (
	"testing"

	"spnet/internal/network"
	"spnet/internal/routing"
)

// TestRelayDropZeroIdentity: RelayDrop = 0 must reproduce the
// pre-adversary engine bit-for-bit — on the flood path (nil model) and on
// the strategy-model path.
func TestRelayDropZeroIdentity(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 2000, ClusterSize: 10,
		AvgOutdegree: 4, TTL: 5}
	inst := generate(t, cfg, nil, 5)

	base := Evaluate(inst)
	adv := EvaluateWith(inst, Options{RelayDrop: -0.5}) // clamped to 0
	if base.AggregateLoad() != adv.AggregateLoad() || base.ResultsPerQuery != adv.ResultsPerQuery ||
		base.EPL != adv.EPL {
		t.Fatalf("drop=0 flood diverged: %+v vs %+v", base.AggregateLoad(), adv.AggregateLoad())
	}

	fw := routing.NewRandomWalk(2).Forwards()
	sbase := EvaluateWith(inst, Options{Forwards: fw})
	sadv := EvaluateWith(inst, Options{Forwards: fw, RelayDrop: -0.5}) // clamped to 0
	if sbase.AggregateLoad() != sadv.AggregateLoad() || sbase.ResultsPerQuery != sadv.ResultsPerQuery {
		t.Fatalf("drop=0 strategy diverged: %+v vs %+v", sbase.AggregateLoad(), sadv.AggregateLoad())
	}
}

// TestRelayDropMonotone: recall decays as relays get less honest, and with
// RelayDrop = 1 (or anything clamped to it) the source cluster is the only responder — matching
// the TTL-0 local-only evaluation.
func TestRelayDropMonotone(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 2000, ClusterSize: 10,
		AvgOutdegree: 4, TTL: 5}
	inst := generate(t, cfg, nil, 5)

	prev := Evaluate(inst).ResultsPerQuery
	for _, d := range []float64{0.3, 0.6, 0.9} {
		r := EvaluateWith(inst, Options{RelayDrop: d}).ResultsPerQuery
		if r >= prev {
			t.Fatalf("ResultsPerQuery(drop %v) = %v, want < %v", d, r, prev)
		}
		prev = r
	}

	dead := EvaluateWith(inst, Options{RelayDrop: 1.5})
	local := network.Config{GraphType: network.PowerLaw, GraphSize: 2000, ClusterSize: 10,
		AvgOutdegree: 4, TTL: 0}
	want := Evaluate(generate(t, local, nil, 5)).ResultsPerQuery
	if relDiff(dead.ResultsPerQuery, want) > 1e-9 {
		t.Fatalf("drop=1 results %v, want local-only %v", dead.ResultsPerQuery, want)
	}
}

// TestRelayDropLoadsShrink: dishonest relays also shed load —
// fewer forwarded copies and fewer responses mean the aggregate bandwidth
// must fall below the honest evaluation, never rise.
func TestRelayDropLoadsShrink(t *testing.T) {
	cfg := network.Config{GraphType: network.PowerLaw, GraphSize: 1000, ClusterSize: 10,
		AvgOutdegree: 4, TTL: 5}
	inst := generate(t, cfg, nil, 9)
	full := Evaluate(inst).AggregateLoad()
	half := EvaluateWith(inst, Options{RelayDrop: 0.5}).AggregateLoad()
	if half.InBps >= full.InBps || half.OutBps >= full.OutBps || half.ProcHz >= full.ProcHz {
		t.Fatalf("drop=0.5 load %+v not below honest load %+v", half, full)
	}
	if half.InBps <= 0 || half.OutBps <= 0 || half.ProcHz <= 0 {
		t.Fatalf("drop=0.5 load degenerate: %+v", half)
	}
}
