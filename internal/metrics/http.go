package metrics

import (
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
