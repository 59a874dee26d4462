package metrics

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Handler serves the standard telemetry surface for one registry:
//
//   - /metrics      — Prometheus text exposition (version 0.0.4)
//   - /debug/pprof/ — the net/http/pprof profiles
//
// The pprof handlers are wired explicitly onto a private mux rather than
// relying on the net/http/pprof init side effects on http.DefaultServeMux,
// so multiple nodes in one process can each serve their own telemetry
// address.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ScrapeClassBytes fetches a Handler's /metrics exposition at addr through
// client and returns its per-class wire-byte totals
// (spnet_message_bytes_total): the experiments' reading of a node's load
// over a real socket.
func ScrapeClassBytes(client *http.Client, addr string) (ByClass, error) {
	var b ByClass
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return b, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return b, fmt.Errorf("scrape %s: status %d", addr, resp.StatusCode)
	}
	vals, err := ParsePrometheus(resp.Body)
	if err != nil {
		return b, err
	}
	for c := 0; c < NumClasses; c++ {
		for d := 0; d < NumDirs; d++ {
			b[c][d] = vals[SeriesKey(MetricMessageBytes,
				Label{Name: "type", Value: Class(c).String()},
				Label{Name: "dir", Value: Dir(d).String()})]
		}
	}
	return b, nil
}
