package sim

import (
	"fmt"
	"testing"

	"spnet/internal/analysis"
	"spnet/internal/network"
	"spnet/internal/routing"
	"spnet/internal/stats"
	"spnet/internal/topology"
)

// runAdvStar simulates the star with planted topics under the given adversary
// (nil = honest) and routing strategy. Every cluster holds two partner
// super-peers, so reputation has an honest alternative to pick.
func runAdvStar(t *testing.T, adv *AdversaryOptions, strat routing.Strategy, seed uint64) *Measured {
	t.Helper()
	const leaves, clients = 4, 3
	inst := plantedTopics(t, topology.Star(leaves), 2, clients, 2)
	m, err := Run(inst, Options{
		Duration:  1500,
		Seed:      seed,
		Routing:   strat,
		Adversary: adv,
		Content: &ContentOptions{
			Titles: func(cluster, owner, file int) []string {
				return []string{fmt.Sprintf("topic%d", cluster)}
			},
			Queries: func(rng *stats.RNG) []string {
				return []string{fmt.Sprintf("topic%d", rng.Intn(leaves+1))}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.ClientQueriesTracked == 0 && adv != nil {
		t.Fatal("no client queries tracked")
	}
	return m
}

func lostFraction(m *Measured) float64 {
	return float64(m.ClientQueriesUnanswered) / float64(m.ClientQueriesTracked)
}

// TestAdversaryZeroValueIdentity pins the determinism contract: planting a
// zero-valued adversary (no malicious peers, no trust) leaves every measured
// quantity bit-identical to a run with the subsystem absent.
func TestAdversaryZeroValueIdentity(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 200
	opts := Options{Duration: 200, Seed: 7, Churn: true}
	honest, err := Run(generate(t, cfg, nil, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Adversary = &AdversaryOptions{}
	planted, err := Run(generate(t, cfg, nil, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if honest.Aggregate != planted.Aggregate ||
		honest.MeanSuperPeer != planted.MeanSuperPeer ||
		honest.MeanClient != planted.MeanClient ||
		honest.ResultsPerQuery != planted.ResultsPerQuery ||
		honest.EPL != planted.EPL ||
		honest.QueriesIssued != planted.QueriesIssued ||
		honest.EventsExecuted != planted.EventsExecuted {
		t.Errorf("zero-value adversary perturbed the run:\nhonest  %+v %v %v\nplanted %+v %v %v",
			honest.Aggregate, honest.ResultsPerQuery, honest.EventsExecuted,
			planted.Aggregate, planted.ResultsPerQuery, planted.EventsExecuted)
	}
	if planted.ClientQueriesTracked == 0 {
		t.Error("zero-value adversary run tracked no client queries")
	}
}

// TestAdversaryDropTrustRecovery is the sim half of the acceptance
// criterion: with half the partners freeloading (every cluster's slot 0
// drops everything), reputation-weighted selection must recover at least
// half of the lost-fraction gap versus the trust-oblivious baseline.
func TestAdversaryDropTrustRecovery(t *testing.T) {
	slot0 := func(cluster, slot int) bool { return slot == 0 }
	off := runAdvStar(t, &AdversaryOptions{Malicious: slot0, Drop: 1}, nil, 11)
	if off.QueriesDroppedMalicious == 0 || off.RelayDropsMalicious == 0 {
		t.Fatalf("trust-off run saw no malicious drops: %+v", off)
	}
	if lostFraction(off) < 0.3 {
		t.Fatalf("trust-off lost fraction = %.3f, want >= 0.3 (attack ineffective)", lostFraction(off))
	}
	on := runAdvStar(t, &AdversaryOptions{Malicious: slot0, Drop: 1, Trust: true}, nil, 11)
	if lostFraction(on) > 0.5*lostFraction(off) {
		t.Errorf("trust recovered too little: lost %.3f (on) vs %.3f (off)",
			lostFraction(on), lostFraction(off))
	}
	if on.GenuineResultsPerQuery <= off.GenuineResultsPerQuery {
		t.Errorf("genuine results/query did not improve: %.2f (on) vs %.2f (off)",
			on.GenuineResultsPerQuery, off.GenuineResultsPerQuery)
	}
	if on.SpreadP50 <= off.SpreadP50 {
		t.Errorf("median spread did not improve: %.2f (on) vs %.2f (off)",
			on.SpreadP50, off.SpreadP50)
	}
}

// TestAdversaryBusyLie checks the refusal path: a Busy-lying access partner
// loses client queries when trust is off, and the immediate bad observation
// steers trusting clients to the honest co-partner.
func TestAdversaryBusyLie(t *testing.T) {
	slot0 := func(cluster, slot int) bool { return slot == 0 }
	off := runAdvStar(t, &AdversaryOptions{Malicious: slot0, BusyLie: 1}, nil, 13)
	if off.QueriesRefused == 0 {
		t.Fatal("no Busy-lies recorded")
	}
	if lostFraction(off) < 0.3 {
		t.Fatalf("trust-off lost fraction = %.3f, want >= 0.3", lostFraction(off))
	}
	on := runAdvStar(t, &AdversaryOptions{Malicious: slot0, BusyLie: 1, Trust: true}, nil, 13)
	if lostFraction(on) > 0.5*lostFraction(off) {
		t.Errorf("trust recovered too little from Busy-lying: lost %.3f (on) vs %.3f (off)",
			lostFraction(on), lostFraction(off))
	}
}

// TestAdversaryForgeryAccounting checks the forged-response pipeline:
// trust-oblivious sources consume fabricated hits (counted separately from
// genuine results), while the trust audit detects and drops them en route.
func TestAdversaryForgeryAccounting(t *testing.T) {
	slot0 := func(cluster, slot int) bool { return slot == 0 }
	off := runAdvStar(t, &AdversaryOptions{Malicious: slot0, Forge: 1}, nil, 17)
	if off.ForgedResponses == 0 || off.ForgedAccepted == 0 {
		t.Fatalf("trust-off forgery not exercised: %d sent, %d accepted",
			off.ForgedResponses, off.ForgedAccepted)
	}
	if off.ForgedDetected != 0 {
		t.Fatalf("trust-off run detected forgeries: %d", off.ForgedDetected)
	}
	// Forgery without dropping does not lose genuine results.
	if lostFraction(off) > 0.01 {
		t.Errorf("forge-only lost fraction = %.3f, want ~0", lostFraction(off))
	}
	on := runAdvStar(t, &AdversaryOptions{Malicious: slot0, Forge: 1, Trust: true}, nil, 17)
	if on.ForgedDetected == 0 {
		t.Fatal("trust-on run detected no forgeries")
	}
	if on.ForgedAccepted != 0 {
		t.Errorf("trust-on run accepted %d forged results", on.ForgedAccepted)
	}
}

// TestLearnedCreditInflation covers the satellite scenario: on a line
// c0–c1–c2, cluster 1's slot-0 partner drops every query it relays while
// forging hits, so the learned strategy's credit for the c0→c1 edge stays
// inflated and far-topic recall collapses. Reputation-weighted neighbor
// selection must route around the forger and recover recall.
func TestLearnedCreditInflation(t *testing.T) {
	line, err := topology.NewAdjGraph(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	middleSlot0 := func(cluster, slot int) bool { return cluster == 1 && slot == 0 }
	run := func(trustOn bool, seed uint64) *Measured {
		inst := plantedTopics(t, line, 2, 3, 3)
		m, err := Run(inst, Options{
			Duration: 2500,
			Seed:     seed,
			Routing:  routing.NewLearned(),
			Adversary: &AdversaryOptions{
				Malicious: middleSlot0, Drop: 1, Forge: 1,
				Trust: trustOn, NeutralPriors: true,
			},
			Content: &ContentOptions{
				Titles: func(cluster, owner, file int) []string {
					return []string{fmt.Sprintf("topic%d", cluster)}
				},
				Queries: func(rng *stats.RNG) []string {
					return []string{fmt.Sprintf("topic%d", rng.Intn(3))}
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	off := run(false, 23)
	if off.ForgedAccepted == 0 {
		t.Fatal("credit-inflation attack not exercised: no forged hits accepted")
	}
	on := run(true, 23)
	if on.ForgedDetected == 0 {
		t.Fatal("trust-on run audited no forgeries")
	}
	gapOff, gapOn := lostFraction(off), lostFraction(on)
	if gapOff < 0.1 {
		t.Fatalf("inflation attack too weak to measure: trust-off lost fraction %.3f", gapOff)
	}
	if gapOn > 0.5*gapOff {
		t.Errorf("reputation did not recover recall: lost %.3f (on) vs %.3f (off)", gapOn, gapOff)
	}
	if on.GenuineResultsPerQuery <= off.GenuineResultsPerQuery {
		t.Errorf("genuine recall did not improve: %.2f (on) vs %.2f (off)",
			on.GenuineResultsPerQuery, off.GenuineResultsPerQuery)
	}
}

// TestAdversaryDeterministic: identical seeds give identical adversarial
// runs, including every misbehavior counter.
func TestAdversaryDeterministic(t *testing.T) {
	adv := func() *AdversaryOptions {
		return &AdversaryOptions{Fraction: 0.3, Drop: 0.5, Forge: 0.5, BusyLie: 0.2, Trust: true}
	}
	a := runAdvStar(t, adv(), nil, 29)
	b := runAdvStar(t, adv(), nil, 29)
	if a.Aggregate != b.Aggregate ||
		a.QueriesRefused != b.QueriesRefused ||
		a.QueriesDroppedMalicious != b.QueriesDroppedMalicious ||
		a.RelayDropsMalicious != b.RelayDropsMalicious ||
		a.ForgedResponses != b.ForgedResponses ||
		a.ForgedDetected != b.ForgedDetected ||
		a.ClientQueriesUnanswered != b.ClientQueriesUnanswered ||
		a.SpreadP90 != b.SpreadP90 {
		t.Errorf("same-seed adversarial runs differ:\n%+v\n%+v", a, b)
	}
}

func TestAdversaryValidation(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 100
	inst := generate(t, cfg, nil, 1)
	if _, err := Run(inst, Options{Duration: 10, Adversary: &AdversaryOptions{Fraction: 1.5}}); err == nil {
		t.Error("Fraction > 1 accepted")
	}
	if _, err := Run(inst, Options{Duration: 10, Adversary: &AdversaryOptions{Drop: -0.1}}); err == nil {
		t.Error("negative Drop accepted")
	}
	if _, err := Run(inst, Options{
		Duration:  10,
		Adversary: &AdversaryOptions{},
		Adaptive:  &AdaptiveOptions{Limit: analysis.Load{InBps: 1e6, OutBps: 1e6, ProcHz: 1e9}, Interval: 60},
	}); err == nil {
		t.Error("adversary + adaptive accepted")
	}
	if _, err := Run(inst, Options{
		Duration:  10,
		Adversary: &AdversaryOptions{},
		Failures:  &FailureOptions{MTBF: 100, RecoveryDelay: 10},
	}); err == nil {
		t.Error("adversary + failures accepted")
	}
}
