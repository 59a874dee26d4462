// Command bench is the repository's benchmark: one invocation runs one
// workload in a fresh process, prints every metric by name with its unit,
// checks that the outputs are correct, and ends with one JSON result line.
//
//	bash bench/run.sh --workload live-flood --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload sim-churn --seed 7 --trace 1 --out ledger.json
//	bash bench/run.sh --compare before.json after.json
//
// See README.md beside this file for the workloads and the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// traceDir is where a traced run leaves its spans, relative to the checkout.
const traceDir = "bench/out"

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed for everything generated: titles, needle choice, GUIDs, instances, sim seeds")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: spans around every call into a layer, per-layer metrics, bench/out/trace-<workload>.json")
	out := flag.String("out", "", "append this run, host-stamped, to a JSON ledger file")
	compare := flag.Bool("compare", false, "compare two ledger files: -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		os.Exit(compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	def := findWorkload(*workload)
	if def == nil {
		fatal("unknown workload %q; want one of %s", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatal("want -seconds > 0, -trace 0 or 1, and no other arguments")
	}
	if raceEnabled {
		fatal("refusing to measure a race-detector build")
	}
	// Pinned and recorded: all cores, default collector pacing.
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(100)

	r := newRun(def, *seed, *seconds, *trace == 1, fullSizes)
	if err := def.run(r); err != nil {
		fatal("%s: %v", def.Name, err)
	}
	r.finish()
	if r.trace {
		path, err := r.tr.write(traceDir, r)
		if err != nil {
			fatal("writing trace: %v", err)
		}
		r.note("spans written to %s", path)
	}
	r.print(os.Stdout)
	if *out != "" {
		if err := appendLedger(*out, r); err != nil {
			fatal("writing ledger: %v", err)
		}
	}
	fmt.Println(r.resultLine())
	if !r.correct() {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// finish fills in what every workload reports the same way.
func (r *run) finish() {
	r.info("peak_rss_mb", peakRSSMB(), "MB")
	if r.trace {
		r.layer["proc.peak_rss_mb"] = peakRSSMB()
	}
	r.info("failed_frac", float64(r.failed)/float64(r.attempted), "frac")
}

func (r *run) endToEnd() map[string]metric {
	m := make(map[string]metric)
	for _, d := range e2eMetrics {
		m[d.Name] = metric{r.e2e[d.Name], d.Unit}
	}
	return m
}

// perLayer is every per-layer metric; a layer the workload bypasses reads 0.
func (r *run) perLayer() map[string]metric {
	m := make(map[string]metric)
	for _, d := range layerMetrics {
		m[d.Name] = metric{r.layer[d.Name], d.Unit}
	}
	return m
}

// reported is the metric set of the result line: every end-to-end metric in
// an untraced run, every per-layer metric in a traced one.
func (r *run) reported() map[string]metric {
	if r.trace {
		return r.perLayer()
	}
	return r.endToEnd()
}

func (r *run) resultLine() string {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.reported()})
	if err != nil {
		fatal("encoding result: %v", err)
	}
	return string(line)
}

func (r *run) print(w *os.File) {
	h := host()
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", r.def.Name, r.seed, r.seconds, r.trace)
	fmt.Fprintf(w, "  why: %s\n  op:  %s\n", r.def.Why, r.def.Op)
	fmt.Fprintf(w, "  host: %s, %d cores, GOMAXPROCS %d, GOGC %d, %s, kernel %s, git %s\n",
		h.CPU, h.Cores, h.GOMAXPROCS, h.GOGC, h.Go, h.Kernel, h.Git)
	fmt.Fprintf(w, "  system under test runs in this process; sockets are loopback, not a real link\n")
	if r.trace {
		fmt.Fprintln(w, "end-to-end (traced window; gate on an untraced run):")
	} else {
		fmt.Fprintln(w, "end-to-end:")
	}
	for _, d := range e2eMetrics {
		extra := ""
		if d.Name == "op_p50_ms" {
			extra = fmt.Sprintf("  n=%d", r.samples)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s bound %2.0f%%%s\n", d.Name, r.e2e[d.Name], d.Unit, d.Bound*100, extra)
	}
	for _, name := range sortedKeys(r.infos) {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s not gated\n", name, r.infos[name].Value, r.infos[name].Unit)
	}
	if r.trace {
		fmt.Fprintln(w, "per-layer (0 where this workload bypasses the layer):")
		for _, d := range layerMetrics {
			if !measuredOn(d, r.def.Name) {
				continue
			}
			moves := d.Moves
			if moves == "" {
				moves = "reference only"
			}
			fmt.Fprintf(w, "  %-34s %14.6g %-6s -> %s\n", d.Name, r.layer[d.Name], d.Unit, moves)
		}
		for _, name := range sortedKeys(r.budget) {
			fmt.Fprintf(w, "  budget %-27s %14.4g us/search\n", name, r.budget[name])
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "checks: attempted %d, failed %d, correct %v\n", r.attempted, r.failed, r.correct())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostInfo stamps a result: numbers without it are numbers we do not have.
type hostInfo struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Kernel     string `json:"kernel"`
	Git        string `json:"git"`
	Race       bool   `json:"race"`
}

func host() hostInfo {
	h := hostInfo{
		CPU: "unknown", Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: 100,
		Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, Kernel: "unknown", Git: "unknown", Race: raceEnabled,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	// go build stamps the commit when it builds inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Git = rev
			if dirty {
				h.Git += "+dirty"
			}
		}
	}
	return h
}

// record is one run in a ledger file.
type record struct {
	Time      string            `json:"time"`
	Host      hostInfo          `json:"host"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Params    map[string]any    `json:"params"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Samples   int               `json:"latency_samples"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Info      map[string]metric `json:"not_gated"`
}

type ledger struct {
	Runs []record `json:"runs"`
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// appendLedger adds the run to the ledger at path, creating it if need be.
func appendLedger(path string, r *run) error {
	l := &ledger{}
	if _, err := os.Stat(path); err == nil {
		if l, err = readLedger(path); err != nil {
			return err
		}
	}
	rec := record{
		Time: time.Now().UTC().Format(time.RFC3339), Host: host(),
		Workload: r.def.Name, Seed: r.seed, Seconds: r.seconds, Trace: r.trace, Params: r.params,
		Attempted: r.attempted, Failed: r.failed, Correct: r.correct(), Problems: r.problems,
		Samples: r.samples, EndToEnd: r.endToEnd(), Info: r.infos,
	}
	if r.trace {
		rec.PerLayer = r.perLayer()
	}
	l.Runs = append(l.Runs, rec)
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
