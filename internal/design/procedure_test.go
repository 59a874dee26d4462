package design

import (
	"errors"
	"reflect"
	"testing"

	"spnet/internal/analysis"
)

// gnutellaConstraints mirrors the Section 5.2 walk-through: 100 Kbps each
// way, 10 MHz, 100 open connections.
func gnutellaConstraints() Constraints {
	return Constraints{
		MaxDownBps: 100_000,
		MaxUpBps:   100_000,
		MaxProcHz:  10_000_000,
		MaxConns:   100,
	}
}

func TestProcedureGnutellaRedesignShape(t *testing.T) {
	// A scaled-down version of the Section 5.2 case study (the full-size
	// version runs in the experiments harness): the procedure must produce
	// a clustered topology with TTL far below Gnutella's 7 and meet every
	// constraint it was given.
	goals := Goals{NetworkSize: 4000, DesiredReach: 600}
	plan, err := Run(goals, gnutellaConstraints(), Options{Trials: 1, Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v\nsteps: %v", err, plan)
	}
	cfg := plan.Config
	if cfg.ClusterSize < 2 {
		t.Errorf("cluster size %d: procedure should exploit clustering", cfg.ClusterSize)
	}
	if cfg.TTL >= 7 {
		t.Errorf("TTL = %d, want far below Gnutella's 7", cfg.TTL)
	}
	pred := plan.Predicted
	if pred.SuperPeer.InBps.Mean > 100_000 || pred.SuperPeer.OutBps.Mean > 100_000 {
		t.Errorf("bandwidth limits violated: %+v", pred.SuperPeer)
	}
	if pred.SuperPeer.ProcHz.Mean > 10_000_000 {
		t.Errorf("processing limit violated: %v", pred.SuperPeer.ProcHz.Mean)
	}
	if pred.ReachPeers.Mean < 600*0.95 {
		t.Errorf("reach %v below goal 600", pred.ReachPeers.Mean)
	}
	if plan.ReachShortfall != 0 {
		t.Errorf("reach was reduced by %v, expected full goal met", plan.ReachShortfall)
	}
	conns := cfg.ClusterSize - cfg.Partners() + int(cfg.AvgOutdegree)*cfg.Partners()
	if cfg.Redundancy {
		conns++
	}
	if conns > 100 {
		t.Errorf("connection budget violated: %d", conns)
	}
	if len(plan.Steps) == 0 {
		t.Error("no trace steps recorded")
	}
}

func TestProcedurePrefersLargerClustersWhenAllowed(t *testing.T) {
	// With generous limits the procedure should keep clusters large
	// (rule #1: aggregate load falls with cluster size).
	loose := Constraints{
		MaxDownBps: 1e9, MaxUpBps: 1e9, MaxProcHz: 1e12, MaxConns: 1_000_000,
	}
	plan, err := Run(Goals{NetworkSize: 1000, DesiredReach: 500}, loose, Options{Trials: 1, Seed: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if plan.Config.ClusterSize < 500 {
		t.Errorf("cluster size = %d, want large under loose constraints", plan.Config.ClusterSize)
	}
}

func TestProcedureReducesReachWhenInfeasible(t *testing.T) {
	// Absurdly tight bandwidth forces the "decrease r" escape hatch or an
	// infeasibility error — never a constraint-violating plan.
	tight := Constraints{MaxDownBps: 2_000, MaxUpBps: 2_000, MaxProcHz: 1e7, MaxConns: 40}
	plan, err := Run(Goals{NetworkSize: 2000, DesiredReach: 2000}, tight, Options{Trials: 1, Seed: 3})
	if err != nil {
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if plan.ReachShortfall <= 0 {
		t.Errorf("expected a reach reduction, got shortfall %v", plan.ReachShortfall)
	}
	if plan.Predicted.SuperPeer.InBps.Mean > tight.MaxDownBps {
		t.Errorf("plan violates the down-bandwidth limit: %v", plan.Predicted.SuperPeer.InBps.Mean)
	}
}

func TestProcedureRedundancyFallback(t *testing.T) {
	// Constraints chosen so redundancy gives headroom: if a plan comes back
	// redundant it must still satisfy the limits.
	cons := gnutellaConstraints()
	cons.AllowRedundancy = true
	plan, err := Run(Goals{NetworkSize: 3000, DesiredReach: 900}, cons, Options{Trials: 1, Seed: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if plan.Predicted.SuperPeer.InBps.Mean > cons.MaxDownBps {
		t.Errorf("limit violated with redundancy fallback")
	}
}

func TestProcedureValidation(t *testing.T) {
	good := gnutellaConstraints()
	if _, err := Run(Goals{NetworkSize: 0, DesiredReach: 1}, good, Options{}); err == nil {
		t.Error("bad goals accepted")
	}
	if _, err := Run(Goals{NetworkSize: 100, DesiredReach: 101}, good, Options{}); err == nil {
		t.Error("reach > size accepted")
	}
	if _, err := Run(Goals{NetworkSize: 100, DesiredReach: 50}, Constraints{}, Options{}); err == nil {
		t.Error("zero constraints accepted")
	}
}

func TestUtilization(t *testing.T) {
	limit := analysis.Load{InBps: 100, OutBps: 200, ProcHz: 1000}
	if got := Utilization(analysis.Load{InBps: 50, OutBps: 100, ProcHz: 100}, limit); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if got := Utilization(analysis.Load{ProcHz: 2000}, limit); got != 2 {
		t.Errorf("overload = %v, want 2", got)
	}
	if got := Utilization(analysis.Load{InBps: 5}, analysis.Load{}); got != 0 {
		t.Errorf("zero limit should give 0, got %v", got)
	}
}

// TestDesignDeterministicAcrossWorkers: the procedure selects the identical
// plan at any worker count — chunked speculative candidate evaluation scans
// results in serial order, so the first success and the failure memo match a
// serial run exactly.
func TestDesignDeterministicAcrossWorkers(t *testing.T) {
	goals := Goals{NetworkSize: 2000, DesiredReach: 400}
	cons := gnutellaConstraints()
	base, err := Run(goals, cons, Options{Trials: 1, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	for _, w := range []int{2, 4, 8, 0} {
		got, err := Run(goals, cons, Options{Trials: 1, Seed: 3, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d plan differs from serial:\nserial:   %+v\nparallel: %+v", w, base, got)
		}
	}
}
