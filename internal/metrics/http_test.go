package metrics

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter(MetricMessages, "Protocol messages by load taxonomy class and direction.",
		Label{"type", "query"}, Label{"dir", "in"}).Add(42)
	r.Counter(MetricMessages, "Protocol messages by load taxonomy class and direction.",
		Label{"type", "response"}, Label{"dir", "out"}).Add(7)
	r.FloatCounter(MetricProcUnits, "Executed processing cost in Table 2 model units.").Add(12.5)
	r.Gauge(MetricConnsOpen, "Open client and peer connections.").Set(3)
	h := r.Histogram(MetricQueryService, "Query service time in seconds.", []float64{0.5, 1, 2})
	h.Observe(0.25)
	h.Observe(1.5)
	h.Observe(8)
	return r
}

// TestPrometheusGolden pins the exact text exposition format against a
// checked-in golden file.
func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/registry.prom")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("Prometheus exposition differs from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(goldenRegistry()))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	vals, err := ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	if got := vals[SeriesKey(MetricMessages, Label{"dir", "in"}, Label{"type", "query"})]; got != 42 {
		t.Errorf("scraped messages(query,in) = %v, want 42", got)
	}

	code, body = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index does not list profiles:\n%s", body)
	}
}
