package telemetry

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Sources names the live objects a debug server exposes. Any field may be
// nil; the endpoints report what is present.
type Sources struct {
	// Probe is the execution's step counters (chain, distributed run, or a
	// probe shared across a sweep's cells).
	Probe *Probe
	// Sweep is the sweep-level aggregate, when a sweep is running.
	Sweep *SweepTracker
	// Recorder, when present, contributes trace occupancy (samples held,
	// dropped) to the status report.
	Recorder *Recorder
	// Health, when present, contributes the self-healing counters
	// (corrupt artifacts, quarantined jobs, watchdog kills, shed
	// requests) to the status report.
	Health *Health
	// Info is static run metadata (workload, parameters) echoed verbatim
	// in the status report.
	Info map[string]any
}

// status is the JSON document served at /debug/sops.
type status struct {
	Now    time.Time      `json:"now"`
	Info   map[string]any `json:"info,omitempty"`
	Probe  *Status        `json:"probe,omitempty"`
	Sweep  *SweepProgress `json:"sweep,omitempty"`
	Trace  *traceStatus   `json:"trace,omitempty"`
	Health *HealthStatus  `json:"health,omitempty"`
}

type traceStatus struct {
	Samples  int    `json:"samples"`
	Capacity int    `json:"capacity"`
	Dropped  uint64 `json:"dropped"`
	Every    uint64 `json:"every"`
}

// snapshot builds the current status document.
func (src Sources) snapshot() status {
	st := status{Now: time.Now(), Info: src.Info}
	if src.Probe != nil {
		ps := src.Probe.Status()
		st.Probe = &ps
	}
	if src.Sweep != nil {
		sp := src.Sweep.Progress()
		st.Sweep = &sp
	}
	if src.Recorder != nil {
		st.Trace = &traceStatus{
			Samples:  src.Recorder.Len(),
			Capacity: src.Recorder.Cap(),
			Dropped:  src.Recorder.Dropped(),
			Every:    src.Recorder.Every(),
		}
	}
	if src.Health != nil {
		hs := src.Health.Status()
		st.Health = &hs
	}
	return st
}

// expvar integration: the package publishes a single "sops" variable whose
// value is the status document of the most recently started Server. expvar
// panics on duplicate names, so the publication happens once per process
// and indirects through an atomic pointer.
var (
	expvarOnce sync.Once
	expvarSrc  atomic.Pointer[Sources]
)

func publishExpvar(src Sources) {
	expvarSrc.Store(&src)
	expvarOnce.Do(func() {
		expvar.Publish("sops", expvar.Func(func() any {
			if s := expvarSrc.Load(); s != nil {
				return s.snapshot()
			}
			return nil
		}))
	})
}

// Server serves live run introspection over HTTP:
//
//	/debug/sops         — JSON status (probe counters and rates, sweep progress, trace occupancy)
//	/debug/sops/stream  — the same status as Server-Sent Events (?interval=500ms sets the cadence)
//	/debug/vars         — expvar, including the same status under the "sops" key
//	/debug/pprof/       — the standard pprof index, profiles and trace
//
// All routes are read-only and accept only GET (and HEAD via net/http);
// other methods get 405 and unknown paths 404. Start it on a loopback
// address for long local runs.
type Server struct {
	src Sources

	mu   sync.Mutex
	ln   net.Listener
	srv  *http.Server
	done chan error
}

// NewServer builds a debug server over the given sources.
func NewServer(src Sources) *Server { return &Server{src: src} }

// Handler returns the server's routes, for embedding into an existing mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/sops", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.src.snapshot())
	})
	mux.HandleFunc("GET /debug/sops/stream", func(w http.ResponseWriter, r *http.Request) {
		interval := time.Second
		if v := r.URL.Query().Get("interval"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				http.Error(w, "interval must be a positive duration (e.g. 500ms)", http.StatusBadRequest)
				return
			}
			interval = d
		}
		SSE(w, r, interval, func() (any, bool) {
			return s.src.snapshot(), false
		})
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	// pprof's symbol endpoint is the one POST in the protocol (`go tool
	// pprof` submits address lists in the body), so it accepts both.
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (e.g. "localhost:6060", or ":0" for an ephemeral
// port), publishes the sources to expvar, and serves in the background. It
// returns the bound address. Use Close to stop.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	publishExpvar(s.src)
	s.mu.Lock()
	s.ln = ln
	// Bounded read-side timeouts keep a slow-loris client from pinning
	// connections forever. WriteTimeout stays unset: the SSE stream route
	// writes for as long as the client watches.
	s.srv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	s.done = make(chan error, 1)
	srv, done := s.srv, s.done
	s.mu.Unlock()
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down, waiting briefly for in-flight requests.
func (s *Server) Close() error {
	s.mu.Lock()
	srv, done := s.srv, s.done
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	<-done // Serve has returned (http.ErrServerClosed on clean shutdown)
	return err
}
