package main

import (
	"fmt"
	"math"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/network"
	"spnet/internal/sim"
	"spnet/internal/stats"
)

// digest pins a simulation's outcome to the last bit: the aggregate loads at
// full float precision plus the event count.
func digest(m *sim.Measured) string {
	return fmt.Sprintf("%.17g/%.17g/%.17g/%d", m.Aggregate.InBps, m.Aggregate.OutBps, m.Aggregate.ProcHz, m.EventsExecuted)
}

func runSimChurn(r *run) error {
	cfg := network.DefaultConfig()
	cfg.GraphSize = r.sz.simPeers
	r.params["config"] = cfg.String()
	r.params["unit_virtual_s"] = r.sz.simUnitVS
	r.params["check_virtual_s"] = r.sz.simCheckVS
	r.params["churn"] = true
	buf := r.tr.buffer()

	// Set-up: generate the instance, then make the same short run twice; the
	// two must agree to the last bit or nothing measured below means much.
	var inst *network.Instance
	var check *sim.Measured
	var mismatch string
	_, err := r.setUp(func() (func(), error) {
		var err error
		buf.do("network.Generate", 0, func() {
			inst, err = network.Generate(cfg, nil, stats.NewRNG(r.seed))
		})
		if err != nil {
			return nil, err
		}
		opts := sim.Options{Duration: r.sz.simCheckVS, Churn: true, Seed: r.seed}
		a, err := sim.Run(inst, opts)
		if err != nil {
			return nil, err
		}
		b, err := sim.Run(inst, opts)
		if err != nil {
			return nil, err
		}
		check = a
		if digest(a) != digest(b) {
			mismatch = digest(a) + " vs " + digest(b)
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	r.params["check_digest"] = digest(check)
	r.attempted++
	if mismatch != "" {
		r.failed++
		r.problem("same-seed runs disagree: %s", mismatch)
	}

	// Measured window: back-to-back sim.Run calls of a fixed virtual length,
	// each with its own sim seed. An operation is 1000 events, so a run of E
	// events is E/1000 operations and one latency sample (ms per 1000 events).
	var latMs []float64
	var events, runS float64
	var last *sim.Measured
	w := timed(func() {
		deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
		for i := uint64(1); time.Now().Before(deadline); i++ {
			id := buf.begin("sim.Run", 0, int(i))
			t0 := time.Now()
			m, e := sim.Run(inst, sim.Options{Duration: r.sz.simUnitVS, Churn: true, Seed: r.seed + i})
			el := time.Since(t0).Seconds()
			buf.end(id)
			r.attempted++
			if e != nil {
				err = e
				return
			}
			if m.EventsExecuted <= 0 || m.QueriesIssued <= 0 || math.IsNaN(m.Aggregate.TotalBps()) {
				r.failed++
				continue
			}
			last = m
			events += float64(m.EventsExecuted)
			runS += el
			latMs = append(latMs, el*1e3/(float64(m.EventsExecuted)/1000))
		}
	})
	if err != nil {
		return err
	}
	if last == nil {
		return fmt.Errorf("no simulation run completed")
	}
	r.recordOps(events/1000, latMs, w)
	r.info("sim_events_per_s", events/w.wall, "1/s")
	if !r.trace {
		return nil
	}

	L := r.layer
	L["sim.events"] = float64(check.EventsExecuted)
	L["sim.events_per_wall_s"] = events / runS
	L["sim.run_s"] = runS / float64(len(latMs))
	L["sim.events_per_vsec"] = float64(last.EventsExecuted) / r.sz.simUnitVS
	unit := sim.Options{Duration: r.sz.simUnitVS, Churn: true, Seed: r.seed}
	r.probeSpan(buf, "sim.new_ms", func() float64 {
		return perOpNs(func() { sim.New(inst, unit) }) / 1e6
	})
	var m *sim.Measured
	buf.do("sim.allocs", 0, func() {
		mallocs, bytes := memDelta(func() { m, err = sim.Run(inst, unit) })
		if err == nil {
			L["sim.allocs_per_event"] = mallocs / float64(m.EventsExecuted)
			L["sim.bytes_per_event"] = bytes / float64(m.EventsExecuted)
		}
	})
	if err != nil {
		return err
	}
	// Accuracy beside speed: a simulator speed-up must leave this and
	// sim.events where they are.
	var want float64
	buf.do("analysis.Evaluate", 0, func() { want = analysis.Evaluate(inst).AggregateLoad().TotalBps() })
	L["sim.vs_analysis_err_frac"] = (m.Aggregate.TotalBps() - want) / want
	r.probeSpan(buf, "network.generate_ms.2k", func() float64 {
		return perOpNs(func() { network.Generate(cfg, nil, stats.NewRNG(r.seed)) }) / 1e6
	})
	return nil
}
