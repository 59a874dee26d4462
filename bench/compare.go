package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (the exclusive method), so
// the figures match the ones the repository's driver computes. Fewer than two
// values have no spread: all three are the value itself.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareLedgers prints, per workload and end-to-end metric, both sides'
// medians and quartiles, how much worse B is than A against the metric's
// bound, and "unresolved" where either side's own run-to-run spread exceeds
// that bound. It returns the exit code: 1 if any metric regressed.
func compareLedgers(w io.Writer, pathA, pathB string) int {
	a, errA := readLedger(pathA)
	b, errB := readLedger(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	return compareRuns(w, a.Runs, b.Runs)
}

func compareRuns(w io.Writer, a, b []record) int {
	// Untraced runs only: tracing perturbs what the end-to-end metrics time.
	values := func(runs []record, workload, name string) (v []float64, failed int) {
		for _, r := range runs {
			if r.Workload == workload && !r.Trace {
				v = append(v, r.EndToEnd[name].Value)
				failed += r.Failed
			}
		}
		return v, failed
	}
	code := 0
	fmt.Fprintf(w, "%-20s %-14s %5s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "runs", "A median", "A IQR", "B median", "B IQR", "worse", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range e2eMetrics {
			va, failedA := values(a, wl.Name, d.Name)
			vb, failedB := values(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			worse := (bm - am) / am
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max((a3-a1)/am, (b3-b1)/bm)
			verdict := "ok"
			switch {
			case failedB > failedA:
				verdict, code = "REGRESSION (more failed operations)", 1
			case spread > d.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > d.Bound:
				verdict, code = "REGRESSION", 1
			}
			fmt.Fprintf(w, "%-20s %-14s %2d/%-2d %12.5g %12.3g %12.5g %12.3g %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, len(va), len(vb), am, a3-a1, bm, b3-b1, worse*100, d.Bound*100, verdict)
		}
	}
	return code
}
