package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinyRun runs one workload traced at smoke-test scale.
func tinyRun(t *testing.T, name string, seed uint64) *run {
	t.Helper()
	def := findWorkload(name)
	if def == nil {
		t.Fatalf("no workload %q", name)
	}
	r := newRun(def, seed, 0.4, true, tinySizes)
	if err := def.run(r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r.finish()
	return r
}

// TestSmoke runs every workload for a fraction of a second and checks what
// the command's correctness gate checks, plus the counts that are exact.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			r := tinyRun(t, w.Name, 7)
			if !r.correct() || r.infos["failed_frac"].Value != 0 {
				t.Fatalf("attempted %d, failed %d, problems %v", r.attempted, r.failed, r.problems)
			}
			if r.attempted < 1 {
				t.Fatalf("attempted %d operations", r.attempted)
			}
			for _, d := range e2eMetrics {
				if !(r.e2e[d.Name] > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, r.e2e[d.Name])
				}
			}
			for name := range r.layer {
				if !layerDeclared(name, w.Name) {
					t.Errorf("layer metric %s is not declared for %s", name, w.Name)
				}
			}
			for _, d := range layerMetrics {
				if _, ok := r.layer[d.Name]; measuredOn(d, w.Name) != ok {
					t.Errorf("%s: declared for this workload = %v, measured = %v", d.Name, !ok, ok)
				}
			}
			if w.Name == wLiveFlood || w.Name == wLiveHeavy {
				// 1 client dispatch + 5 copies from the source + 4 from each
				// of the other 7 nodes, duplicates included.
				if got := r.layer["p2p.dispatch_per_search"]; got != 34 {
					t.Errorf("p2p.dispatch_per_search = %v, want exactly 34", got)
				}
				if got := r.layer["p2p.shed_per_search"]; got != 0 {
					t.Errorf("p2p.shed_per_search = %v, want 0", got)
				}
			}
		})
	}
}

func layerDeclared(name, workload string) bool {
	for _, d := range layerMetrics {
		if d.Name == name {
			return measuredOn(d, workload)
		}
	}
	return false
}

// TestSimDeterminism: the same seed gives the same simulation, to the event.
func TestSimDeterminism(t *testing.T) {
	a, b := tinyRun(t, wSimChurn, 11), tinyRun(t, wSimChurn, 11)
	if a.layer["sim.events"] != b.layer["sim.events"] || a.layer["sim.events"] == 0 {
		t.Errorf("sim.events %v vs %v", a.layer["sim.events"], b.layer["sim.events"])
	}
	if a.params["check_digest"] != b.params["check_digest"] || a.params["check_digest"] == nil {
		t.Errorf("digest %v vs %v", a.params["check_digest"], b.params["check_digest"])
	}
	if c := tinyRun(t, wSimChurn, 12); c.params["check_digest"] == a.params["check_digest"] {
		t.Errorf("another seed gave the same digest %v", c.params["check_digest"])
	}
}

// TestDeclaredNames: what the command prints is exactly what BENCHMARK.json
// declares, name for name, with the same units, directions and bounds.
func TestDeclaredNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why || !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %+v, runs %q (%q)", i, d, w.Name, w.Why)
		}
	}
	if len(decl.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d printed", len(decl.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		d := decl.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end %d: declared %+v, printed %+v", i, d, m)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad name, unit %q or bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if len(decl.PerLayer) != len(layerMetrics) || len(layerMetrics) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(decl.PerLayer), len(layerMetrics))
	}
	seen := make(map[string]bool)
	for i, m := range layerMetrics {
		d := decl.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: declared %+v, printed %+v", i, d, m)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] || len(m.On) == 0 {
			t.Errorf("per-layer %s: bad or repeated name, unit %q, or measured nowhere", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}

	// The result line carries exactly the declared set, traced or not.
	for _, trace := range []bool{false, true} {
		r := newRun(&workloads[0], 1, 1, trace, tinySizes)
		want := len(e2eMetrics)
		if trace {
			want = len(layerMetrics)
		}
		if got := len(r.reported()); got != want {
			t.Errorf("trace=%v: result line has %d metrics, want %d", trace, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestCompare(t *testing.T) {
	runs := func(qps ...float64) []record {
		var out []record
		for _, v := range qps {
			out = append(out, record{Workload: wLiveFlood, EndToEnd: map[string]metric{
				"ops_per_s": {v, "1/s"}, "op_p50_ms": {0.5, "ms"},
			}})
		}
		return out
	}
	verdict := func(a, b []record) (int, string) {
		var out bytes.Buffer
		code := compareRuns(&out, a, b)
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "ops_per_s") {
				return code, line
			}
		}
		return code, ""
	}
	base := runs(3300, 3310, 3290, 3305)
	if code, line := verdict(base, runs(3280, 3300, 3295, 3310)); code != 0 || !strings.HasSuffix(line, " ok") {
		t.Errorf("same speed: code %d, %q", code, line)
	}
	if code, line := verdict(base, runs(2300, 2310, 2290, 2305)); code != 1 || !strings.Contains(line, "REGRESSION") {
		t.Errorf("30%% slower: code %d, %q", code, line)
	}
	if code, line := verdict(base, runs(4000, 4010, 3990, 4005)); code != 0 || !strings.HasSuffix(line, " ok") {
		t.Errorf("faster: code %d, %q", code, line)
	}
	if code, line := verdict(base, runs(2000, 3300, 2500, 4000)); code != 0 || !strings.Contains(line, "unresolved") {
		t.Errorf("noisy: code %d, %q", code, line)
	}
	worse := runs(3300, 3310, 3290, 3305)
	worse[0].Failed = 3
	if code, _ := verdict(base, worse); code != 1 {
		t.Errorf("more failed operations: code %d, want 1", code)
	}
}
