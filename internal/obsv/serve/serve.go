// Package serve is the live half of the observability layer: an opt-in
// HTTP server that exposes a running search or simulation while it
// executes. Every cmd/ binary wires it behind the shared
// `-serve :addr` flag (internal/cli); with the flag unset nothing in this
// package runs and the producers keep their nil-guard fast paths.
//
// The run's obsv.Registry is its one live view: a search sets its
// mcheck_* gauges on every BFS level, the telemetry collector its
// telemetry_* gauges on every frame, and the load sweep its loadtest_*
// counters on every rate point, so polling /metrics follows the run.
//
// Endpoints:
//
//	/metrics      Prometheus text exposition of the run's obsv.Registry
//	/healthz      liveness JSON (pid, uptime, Go version)
//	/debug/pprof/ the standard runtime profiling endpoints
//
// The server reports; it never steers. Nothing reachable over HTTP can
// change a verdict, which keeps the determinism contract of internal/obsv
// intact even with a scraper attached mid-search.
package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"

	"repro/internal/obsv"
)

// Server bundles the observatory endpoints over one registry.
type Server struct {
	reg     *obsv.Registry
	mux     *http.ServeMux
	started time.Time

	ln   net.Listener
	http *http.Server
}

// New returns a server exposing the registry (may be nil: /metrics then
// serves an empty exposition).
func New(reg *obsv.Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's routing handler, for tests that mount it
// on an httptest.Server instead of a real listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (":8080", "127.0.0.1:0", ...) and serves in a
// background goroutine until Close. It returns the bound address, which
// differs from addr when a ":0" ephemeral port was requested.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.mux}
	go s.http.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), nil
}

// Close stops the listener. In-flight requests are abandoned — the server
// exists for the duration of one process's run.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "run observatory\n\n"+
		"/metrics      Prometheus exposition of the live registry (poll it to follow the run)\n"+
		"/healthz      liveness\n"+
		"/debug/pprof/ runtime profiles\n")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"pid":       os.Getpid(),
		"go":        runtime.Version(),
		"uptime_ms": time.Since(s.started).Milliseconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.reg == nil {
		return
	}
	if err := s.reg.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}
