package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"spnet/internal/stats"
)

// processStart is as close to exec as Go code gets; the first set-up is
// timed from here so launch cost shows in setup_s.
var processStart = time.Now()

// sizes scale a workload. The command always runs fullSizes; the smoke test
// runs tinySizes so tier-1 stays fast.
type sizes struct {
	setupRepeats int // set-ups per process; setup_s is their median

	warmSearches int // per probe, before the measured window

	simPeers   int
	simUnitVS  float64 // virtual seconds per measured sim.Run
	simCheckVS float64 // virtual seconds of the two same-seed determinism runs

	analysisPeers     int
	analysisInstances int // each evaluated once per round
	designReaches     []int

	transferBytes int64
	warmFetches   int
}

var fullSizes = sizes{
	setupRepeats: 3,
	warmSearches: 1500,
	simPeers:     2000, simUnitVS: 30, simCheckVS: 20,
	analysisPeers: 10000, analysisInstances: 4, designReaches: []int{100, 200, 300, 400, 500},
	transferBytes: 64 << 20, warmFetches: 3,
}

var tinySizes = sizes{
	setupRepeats: 1,
	warmSearches: 20,
	simPeers:     300, simUnitVS: 10, simCheckVS: 10,
	analysisPeers: 1000, analysisInstances: 2, designReaches: []int{50},
	transferBytes: 2 << 20, warmFetches: 1,
}

// run is one invocation: one workload, one seed, one process.
type run struct {
	def     *workloadDef
	seed    uint64
	seconds float64
	trace   bool
	sz      sizes
	tr      *tracer // nil unless trace

	attempted int
	failed    int
	problems  []string // correctness violations beyond failed ops

	e2e     map[string]float64
	layer   map[string]float64
	infos   map[string]metric  // numbers printed and ledgered but not gated
	params  map[string]any     // workload parameters, for the ledger
	samples int                // operation latency samples behind the percentiles
	budget  map[string]float64 // live-flood traced run: µs per search by layer
	notes   []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRun(def *workloadDef, seed uint64, seconds float64, trace bool, sz sizes) *run {
	r := &run{
		def: def, seed: seed, seconds: seconds, trace: trace, sz: sz,
		e2e:    make(map[string]float64),
		layer:  make(map[string]float64),
		infos:  make(map[string]metric),
		params: make(map[string]any),
	}
	if trace {
		r.tr = newTracer()
	}
	return r
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// info records a number worth printing that is not an end-to-end metric of
// every workload: a workload's own name for its throughput, a percentile too
// noisy to gate, peak memory.
func (r *run) info(name string, v float64, unit string) { r.infos[name] = metric{v, unit} }

// correct reports whether every output checked out: no failed operation and
// no correctness problem.
func (r *run) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// setUp builds the system under test sz.setupRepeats times, tearing down all
// but the last, and records the median as setup_s. build returns the
// teardown of what it built (nil when there is nothing to release); setUp
// returns the last one, never nil.
func (r *run) setUp(build func() (teardown func(), err error)) (func(), error) {
	var times []float64
	start := processStart
	for i := 1; ; i++ {
		teardown, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if teardown == nil {
			teardown = func() {}
		}
		times = append(times, time.Since(start).Seconds())
		if i >= r.sz.setupRepeats {
			r.e2e["setup_s"] = stats.Percentile(times, 50)
			return teardown, nil
		}
		teardown()
		start = time.Now()
	}
}

// window is the wall time, CPU time and heap bytes allocated of one measured
// stretch.
type window struct{ wall, cpu, alloc float64 }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func timed(f func()) window {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuSeconds(), time.Now()
	f()
	w := window{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&after)
	w.alloc = float64(after.TotalAlloc - before.TotalAlloc)
	return w
}

// recordOps turns one measured window into the operation metrics. ops is the
// number of operations completed (fractional where an op is a share of a
// call, as with 1000 simulator events); latMs holds one latency per sample.
func (r *run) recordOps(ops float64, latMs []float64, w window) {
	r.samples = len(latMs)
	r.e2e["ops_per_s"] = ops / w.wall
	r.e2e["op_p50_ms"] = stats.Percentile(latMs, 50)
	r.e2e["cpu_s_per_kop"] = w.cpu / ops * 1000
	r.e2e["alloc_kb_per_op"] = w.alloc / ops / 1000
	r.info("op_p95_ms", stats.Percentile(latMs, 95), "ms")
}

// perOpNs times f in batches sized to ~5 ms and returns the fastest batch's
// ns per call: the collector and the scheduler only ever add time, so the
// minimum is the steadiest estimate of what the call itself costs.
func perOpNs(f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if el := time.Since(t0); el >= 5*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	best := math.Inf(1)
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return best
}

// memDelta reports the heap objects and bytes f allocates. Exact only while
// no other goroutine allocates.
func memDelta(f func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// allocsPerOp is the exact heap-object count of one f, averaged over 100.
func allocsPerOp(f func()) float64 {
	f() // warm lazily initialised state
	m, _ := memDelta(func() {
		for i := 0; i < 100; i++ {
			f()
		}
	})
	return m / 100
}
