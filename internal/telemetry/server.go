package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"conceptrank/internal/cache"
)

// Handler returns the introspection mux:
//
//	/metrics        Prometheus text exposition of the sink's registry
//	/debug/slowlog  the last N slow/failed queries with their span events
//	/debug/cache    distance-cache stats snapshot (JSON; see AttachCache)
//	/debug/pprof/*  the standard runtime profiles
//
// Everything is read-only; mount it on a loopback or otherwise trusted
// listener — pprof exposes process internals.
func (s *Sink) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			ThresholdNS time.Duration `json:"threshold_ns"`
			Entries     []SlowEntry   `json:"entries"`
		}{s.Slow.Threshold(), s.Slow.Snapshot()})
	})
	mux.HandleFunc("/debug/cache", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if s.cache == nil {
			_, _ = fmt.Fprintln(w, `{"attached":false}`)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Attached bool `json:"attached"`
			cache.Stats
		}{Attached: true, Stats: s.cache.Stats()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "conceptrank telemetry\n\n"+
			"/metrics        Prometheus exposition\n"+
			"/debug/slowlog  recent slow queries with span events\n"+
			"/debug/cache    distance-cache stats snapshot\n"+
			"/debug/pprof/   runtime profiles\n")
	})
	return mux
}

// Serve binds addr and serves Handler in a background goroutine. The
// returned server's Addr field holds the bound address (useful with
// ":0"); shut it down with (*http.Server).Close. The listener error path
// is synchronous — an unbindable addr is reported here, not later.
func (s *Sink) Serve(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
