package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Server is the live status server for one exploration run: /metrics in
// Prometheus text format, /statusz as JSON (the engine's Progress
// snapshot), and the standard /debug/pprof endpoints. It binds at
// construction (so a bad address fails the run up front, not mid-flight)
// and serves until Close or Shutdown.
type Server struct {
	ln   net.Listener
	http *http.Server

	// unused holds the accepted connections still in http.StateNew, which
	// Shutdown would otherwise wait out for 5 s each; shut is set once the
	// listener is closed.
	mu     sync.Mutex
	unused map[*conn]struct{}
	shut   bool
}

// conn is an accepted connection that records whether any byte has been
// read from it: a StateNew connection may be reading its first request.
type conn struct {
	net.Conn
	read atomic.Bool
}

func (c *conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.read.Store(true)
	}
	return n, err
}

type listener struct{ net.Listener }

func (l listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c}, nil
}

// track follows each connection's state; a connection accepted after the
// listener closed is closed at once.
func (s *Server) track(nc net.Conn, st http.ConnState) {
	c := nc.(*conn)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(s.unused, c)
	case s.shut:
		c.Close()
	default:
		s.unused[c] = struct{}{}
	}
}

// dropUnused runs once the listener is closed: it closes every connection
// that was dialled and never sent a byte. A request already being read is
// left to finish.
func (s *Server) dropUnused() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shut = true
	for c := range s.unused {
		if !c.read.Load() {
			c.Close()
		}
	}
}

// Route is one extra (pattern, handler) pair mounted on the status
// server's mux by NewServer. Patterns use net/http.ServeMux syntax,
// including method prefixes and wildcards ("POST /jobs", "GET /jobs/{id}").
type Route struct {
	Pattern string
	Handler http.Handler
}

// NewServer starts a status server on addr. reg may be nil (/metrics
// serves an empty body); status may be nil (/statusz serves null). routes
// are application endpoints mounted on the same mux — the coordinator and
// the job server layer their APIs onto the status server this way, so one
// listener serves /metrics, /statusz, pprof and the application together.
// The returned server is already listening; Addr reports the bound address,
// which is useful with a ":0" addr.
func NewServer(addr string, reg *Registry, status func() any, routes ...Route) (*Server, error) {
	mux := http.NewServeMux()
	// The index is "/" exactly, so a known path under the wrong method is
	// the mux's 405, not a catch-all's 404.
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "cxlmc status server\n\n/metrics\t\tPrometheus text format\n/statusz\t\tJSON run status\n/debug/pprof/\tGo profiling\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var v any
		if status != nil {
			v = status()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, rt := range routes {
		mux.Handle(rt.Pattern, rt.Handler)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: status server on %s: %w", addr, err)
	}
	s := &Server{ln: ln, unused: make(map[*conn]struct{})}
	s.http = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ConnState:         s.track,
	}
	s.http.RegisterOnShutdown(s.dropUnused)
	go s.http.Serve(listener{ln})
	return s, nil
}

// Addr returns the server's bound "host:port" address.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server gracefully: the listener stops accepting
// new connections immediately, connections dialled but never used are
// closed, in-flight requests (a /metrics scrape) run to completion —
// whoever parks requests wakes them first — and Shutdown returns when they
// have — or when ctx expires, at which point remaining connections are
// closed hard and ctx.Err is returned. Safe on a nil receiver.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	return s.http.Shutdown(ctx)
}

// Close stops the server immediately, dropping in-flight requests. Safe
// on a nil receiver.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.http.Close()
}
