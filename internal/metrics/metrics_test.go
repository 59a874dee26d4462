package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var fc FloatCounter
	var g Gauge
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				fc.Add(0.5)
				g.Add(2)
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("Counter = %d, want %d", got, workers*per)
	}
	if got := fc.Value(); got != workers*per*0.5 {
		t.Errorf("FloatCounter = %v, want %v", got, workers*per*0.5)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("Gauge = %d, want %d", got, workers*per)
	}
}

func TestRegistryDuplicateSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x", Label{"a", "1"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series did not panic")
		}
	}()
	r.Counter("x_total", "x", Label{"a", "1"})
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "x", Label{"a", "1"})
}

func TestRegistryUnregister(t *testing.T) {
	expo := func(r *Registry) string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	r := NewRegistry()
	r.Gauge("g", "g", Label{"peer", "0"}).Set(10)
	r.Gauge("g", "g", Label{"peer", "1"}).Set(11)
	r.Gauge("g", "g", Label{"peer", "2"}).Set(12)
	r.Counter("c_total", "c")

	r.Unregister("g", Label{"peer", "1"})
	r.Unregister("g", Label{"peer", "9"}) // no such series
	want := "# HELP g g\n# TYPE g gauge\n" + `g{peer="0"} 10` + "\n" + `g{peer="2"} 12` + "\n" +
		"# HELP c_total c\n# TYPE c_total counter\nc_total 0\n"
	if got := expo(r); got != want {
		t.Fatalf("after one Unregister:\n%s\nwant:\n%s", got, want)
	}

	// The last series takes its family with it, and the name is free again.
	r.Unregister("g", Label{"peer", "0"})
	r.Unregister("g", Label{"peer", "2"})
	if got, want := expo(r), "# HELP c_total c\n# TYPE c_total counter\nc_total 0\n"; got != want {
		t.Fatalf("after every series went:\n%s\nwant:\n%s", got, want)
	}
	r.Gauge("g", "g", Label{"peer", "1"})
}

func TestSeriesKeySortsLabels(t *testing.T) {
	got := SeriesKey("m", Label{"type", "query"}, Label{"dir", "in"})
	want := `m{dir="in",type="query"}`
	if got != want {
		t.Errorf("SeriesKey = %q, want %q", got, want)
	}
	if got := SeriesKey("m"); got != "m" {
		t.Errorf("SeriesKey no labels = %q, want %q", got, "m")
	}
}

func TestParsePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a", Label{"type", "query"}, Label{"dir", "in"}).Add(7)
	r.Counter("a_total", "a", Label{"type", "response"}, Label{"dir", "out"}).Add(9)
	r.Gauge("g", "g").Set(-3)
	r.Counter("esc_total", "e", Label{"v", `quo"te\back`}).Add(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\ninput:\n%s", err, b.String())
	}
	checks := map[string]float64{
		SeriesKey("a_total", Label{"dir", "in"}, Label{"type", "query"}):     7,
		SeriesKey("a_total", Label{"type", "response"}, Label{"dir", "out"}): 9,
		SeriesKey("g"): -3,
		SeriesKey("esc_total", Label{"v", `quo"te\back`}): 1,
	}
	for k, want := range checks {
		if got[k] != want {
			t.Errorf("parsed[%q] = %v, want %v (all: %v)", k, got[k], want, got)
		}
	}
}

func TestLoadMeter(t *testing.T) {
	var m LoadMeter
	m.Observe(ClassQuery, DirIn, 138)
	m.Observe(ClassQuery, DirIn, 138)
	m.Observe(ClassResponse, DirOut, 500)
	if got := m.Messages(ClassQuery, DirIn); got != 2 {
		t.Errorf("Messages(query,in) = %d, want 2", got)
	}
	if got := m.Bytes(ClassQuery, DirIn); got != 276 {
		t.Errorf("Bytes(query,in) = %d, want 276", got)
	}
	b := m.BytesByClass()
	if b.Get(ClassResponse, DirOut) != 500 {
		t.Errorf("ByClass(response,out) = %v, want 500", b.Get(ClassResponse, DirOut))
	}
	if got := b.Sum(DirIn, ClassQuery, ClassResponse); got != 276 {
		t.Errorf("Sum(in, query+response) = %v, want 276", got)
	}
	if got := b.Total(); got != 776 {
		t.Errorf("Total = %v, want 776", got)
	}
	half := b.Scale(0.5)
	if half.Get(ClassResponse, DirOut) != 250 {
		t.Errorf("Scale(0.5)(response,out) = %v, want 250", half.Get(ClassResponse, DirOut))
	}
	var sum ByClass
	sum.Merge(b)
	sum.Merge(half)
	if got := sum.Get(ClassQuery, DirIn); got != 276+138 {
		t.Errorf("Merge(query,in) = %v, want %v", got, 276+138)
	}
}

func TestNodeMetricsSchema(t *testing.T) {
	nm := NewNodeMetrics()
	nm.Load.Observe(ClassQuery, DirIn, 138)
	nm.ConnBytes[DirOut].Add(999)
	nm.ConnsOpen.Set(4)
	nm.ProcUnits.Add(1.25)
	nm.QueriesHandled.Inc()
	nm.Shed[ShedQueue][SourcePeer].Inc()
	nm.Shed[ShedRateLimit][SourceClient].Add(2)
	nm.BusyReceived.Inc()
	nm.QueryService.Observe(0.002)

	var b strings.Builder
	if err := nm.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	vals, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		SeriesKey(MetricMessages, Label{"type", "query"}, Label{"dir", "in"}):                  1,
		SeriesKey(MetricMessageBytes, Label{"type", "query"}, Label{"dir", "in"}):              138,
		SeriesKey(MetricConnBytes, Label{"dir", "out"}):                                        999,
		SeriesKey(MetricConnsOpen):                                                             4,
		SeriesKey(MetricProcUnits):                                                             1.25,
		SeriesKey(MetricQueriesHandled):                                                        1,
		SeriesKey(MetricQueriesShed, Label{"reason", "queue_full"}, Label{"source", "peer"}):   1,
		SeriesKey(MetricQueriesShed, Label{"reason", "rate_limit"}, Label{"source", "client"}): 2,
		SeriesKey(MetricQueriesShed, Label{"reason", "inflight"}, Label{"source", "client"}):   0,
		SeriesKey(MetricBusyReceived):                                                          1,
		SeriesKey(MetricQueryService + "_count"):                                               1,
	}
	for k, want := range checks {
		got, ok := vals[k]
		if !ok {
			t.Errorf("series %q missing from exposition", k)
			continue
		}
		if got != want {
			t.Errorf("series %q = %v, want %v", k, got, want)
		}
	}
	if got := nm.ShedTotal(SourceClient); got != 2 {
		t.Errorf("ShedTotal(client) = %d, want 2", got)
	}
	if got := nm.ShedTotal(SourcePeer); got != 1 {
		t.Errorf("ShedTotal(peer) = %d, want 1", got)
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	var c Counter
	var fc FloatCounter
	var g Gauge
	var m LoadMeter
	h := NewHistogram(DefLatencyBuckets)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"FloatCounter.Add", func() { fc.Add(0.25) }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Histogram.Observe", func() { h.Observe(0.01) }},
		{"LoadMeter.Observe", func() { m.Observe(ClassResponse, DirOut, 321) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, allocs)
		}
	}
}
