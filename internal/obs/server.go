// Package obs is the live observability plane: an opt-in HTTP server that
// exposes the Runtime's metrics, snapshot tree, trace rings, flight recorder
// and pprof handlers while the Runtime serves traffic.
//
// Endpoints:
//
//	/metrics        Prometheus text exposition (hand-rolled, no client deps)
//	/snapshot       the full runtime.Snapshot as JSON (re-rendered on demand)
//	/traces         recent sampled traces; ?stack= ?op= ?min_us= ?err=1 ?tail=1 ?n=
//	/traces/export  same selection as /traces; ?format=chrome emits Chrome
//	                trace-event JSON loadable in Perfetto / chrome://tracing
//	/profile        per-stack latency-attribution tables as JSON
//	/bundles        incident bundles captured so far (when capture is armed)
//	/events         flight-recorder tail; ?kind=<dotted prefix> ?n=
//	/slos           SLO watchdog verdicts as JSON
//	/healthz        liveness + runtime state
//	/debug/pprof/   net/http/pprof (when enabled)
//
// The server is wired from the runtime config's `observe:` section and costs
// nothing until scraped: every handler renders from the same registries the
// runtime already maintains.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"labstor/internal/runtime"
	"labstor/internal/spec"
	"labstor/internal/telemetry"
)

// Config selects the listen address and optional handlers.
type Config struct {
	// Addr is the listen address ("host:0" binds an ephemeral port).
	Addr string
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Bundle arms SLO-breach incident capture when Bundle.Dir is set.
	Bundle BundleConfig
}

// Server serves the observability endpoints for one Runtime.
type Server struct {
	rt      *runtime.Runtime
	cfg     Config
	ln      net.Listener
	srv     *http.Server
	bundler *Bundler
}

// New builds a server (not yet listening) for rt. When cfg.Bundle.Dir is
// set, a Bundler is armed on the runtime's SLO-breach hook immediately —
// incident capture does not wait for Start (breaches during boot warmup
// are often the interesting ones).
func New(rt *runtime.Runtime, cfg Config) *Server {
	s := &Server{rt: rt, cfg: cfg}
	if cfg.Bundle.Dir != "" {
		s.bundler = NewBundler(rt, cfg.Bundle)
		rt.OnSLOBreach(s.bundler.OnBreach)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.timed("/metrics", s.handleMetrics))
	mux.HandleFunc("/snapshot", s.timed("/snapshot", s.handleSnapshot))
	mux.HandleFunc("/traces", s.timed("/traces", s.handleTraces))
	mux.HandleFunc("/traces/export", s.timed("/traces/export", s.handleTracesExport))
	mux.HandleFunc("/profile", s.timed("/profile", s.handleProfile))
	mux.HandleFunc("/bundles", s.timed("/bundles", s.handleBundles))
	mux.HandleFunc("/events", s.timed("/events", s.handleEvents))
	mux.HandleFunc("/slos", s.timed("/slos", s.handleSLOs))
	mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// timed wraps a handler so the plane self-reports its serving cost: each
// invocation's duration lands in the runtime's own registry as the
// `obs.handler_us;endpoint=<path>` histogram (scrape counts ride along in
// the histogram's count). The cost of observing the observer is one clock
// read and one histogram insert per request.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.rt.Metrics().Histogram("obs.handler_us;endpoint=" + endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		h(w, r)
		hist.Observe(float64(time.Since(begin).Microseconds()))
	}
}

// Start binds the listener and serves in the background. It returns the
// bound address (useful with :0) and records the fact on the flight
// recorder so scrapes have a provenance line.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.rt.Events().Recordf(telemetry.EvObserve, 0, "observability server listening on %s", ln.Addr())
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	s.rt.Events().Recordf(telemetry.EvObserve, 0, "observability server closed")
	return s.srv.Close()
}

// Bundler returns the armed incident bundler (nil when capture is off).
func (s *Server) Bundler() *Bundler { return s.bundler }

// FromConfig starts a server when the parsed `observe:` section enables one
// (nil, nil when Addr is empty — observability stays opt-in).
func FromConfig(rt *runtime.Runtime, ob spec.ObserveSpec) (*Server, string, error) {
	if ob.Addr == "" {
		return nil, "", nil
	}
	s := New(rt, Config{
		Addr:  ob.Addr,
		Pprof: ob.Pprof,
		Bundle: BundleConfig{
			Dir:        ob.BundleDir,
			ProfileDur: time.Duration(ob.BundleProfileMs) * time.Millisecond,
			Cooldown:   time.Duration(ob.BundleCooldownMs) * time.Millisecond,
			Max:        ob.BundleMax,
		},
	})
	bound, err := s.Start()
	if err != nil {
		return nil, "", err
	}
	return s, bound, nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "labstor observability plane")
	for _, ep := range []string{"/metrics", "/snapshot", "/traces", "/traces/export", "/profile", "/bundles", "/events", "/slos", "/healthz"} {
		fmt.Fprintln(w, "  "+ep)
	}
	if s.cfg.Pprof {
		fmt.Fprintln(w, "  /debug/pprof/")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, s.rt.Metrics().Snapshot())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	raw, err := s.rt.Snapshot().JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// selectTraces applies the shared /traces query grammar to pick a ring and
// filter it. ?tail=1 selects the tail-outlier ring (the slowest requests,
// retained regardless of the sampling period), ?err=1 the error ring;
// otherwise the sampled ring. Remaining filters intersect: ?stack=<mount>
// ?op=<name> ?min_us=<latency floor> ?n=<last N>. A malformed number is an
// error naming its parameter.
func (s *Server) selectTraces(r *http.Request) ([]telemetry.Trace, error) {
	q := r.URL.Query()
	var minUS float64
	if v := strings.TrimSpace(q.Get("min_us")); v != "" {
		var err error
		if minUS, err = strconv.ParseFloat(v, 64); err != nil || !(minUS >= 0) {
			return nil, badParam("min_us", v)
		}
	}
	var traces []telemetry.Trace
	switch {
	case q.Get("tail") == "1" || q.Get("tail") == "true":
		traces = s.rt.TailTraces()
	case q.Get("err") == "1" || q.Get("err") == "true":
		traces = s.rt.Tracer().RecentErrors()
	default:
		traces = s.rt.Traces()
	}
	stack, op := q.Get("stack"), q.Get("op")
	out := make([]telemetry.Trace, 0, len(traces))
	for _, tr := range traces {
		if stack != "" && tr.Stack != stack {
			continue
		}
		if op != "" && tr.Op != op {
			continue
		}
		if minUS > 0 && tr.Latency().Micros() < minUS {
			continue
		}
		out = append(out, tr)
	}
	return lastN(out, q.Get("n"))
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces, err := s.selectTraces(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, traces)
}

// handleTracesExport renders the same selection as /traces in an external
// viewer format. ?format=chrome (the default) emits Chrome trace-event JSON:
// save the response and load it in Perfetto or chrome://tracing to see each
// request's queue-wait/cpu/device anatomy on a per-worker timeline.
func (s *Server) handleTracesExport(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "chrome"
	}
	if format != "chrome" {
		http.Error(w, fmt.Sprintf("unknown format %q (supported: chrome)", format), http.StatusBadRequest)
		return
	}
	traces, err := s.selectTraces(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="labstor-trace.json"`)
	if err := telemetry.WriteChromeTrace(w, traces); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// ProfileResponse is the /profile payload: per-stack latency attribution
// plus the data path's per-site copy accounting (the zero-copy audit).
type ProfileResponse struct {
	Stacks    []telemetry.StackAttribution `json:"stacks"`
	CopySites []telemetry.CopySiteStat     `json:"copy_sites"`
}

// handleProfile serves the per-stack latency-attribution tables — where
// each stack's latency goes (queue wait vs CPU vs device), per op and per
// sampled stage — alongside the copy-site counters, so one scrape answers
// both "where does time go" and "where do bytes still get copied".
func (s *Server) handleProfile(w http.ResponseWriter, _ *http.Request) {
	resp := ProfileResponse{
		Stacks:    s.rt.Attribution(),
		CopySites: telemetry.CopySiteStats(),
	}
	if resp.Stacks == nil {
		resp.Stacks = []telemetry.StackAttribution{}
	}
	if resp.CopySites == nil {
		resp.CopySites = []telemetry.CopySiteStat{}
	}
	writeJSON(w, resp)
}

// handleBundles lists the incident bundles captured so far.
func (s *Server) handleBundles(w http.ResponseWriter, _ *http.Request) {
	if s.bundler == nil {
		writeJSON(w, map[string]any{"armed": false, "bundles": []BundleInfo{}})
		return
	}
	writeJSON(w, map[string]any{
		"armed":   true,
		"dir":     s.cfg.Bundle.Dir,
		"skipped": s.bundler.Skipped(),
		"bundles": s.bundler.List(),
	})
}

// handleEvents serves the flight-recorder tail; ?kind= filters by dotted
// family prefix (e.g. kind=slo matches slo.breach and slo.recover).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	evs, err := lastN(s.rt.Events().Filter(q.Get("kind")), q.Get("n"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, evs)
}

func (s *Server) handleSLOs(w http.ResponseWriter, _ *http.Request) {
	slos := s.rt.SLOStatus()
	if slos == nil {
		slos = []runtime.SLOStatus{}
	}
	writeJSON(w, slos)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	state := "running"
	switch {
	case s.rt.Crashed():
		state = "crashed"
	case !s.rt.Running():
		state = "stopped"
	}
	if state != "running" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "%s\n", state)
}

// lastN keeps the trailing n elements when the query asks for a bound.
func lastN[T any](xs []T, nStr string) ([]T, error) {
	nStr = strings.TrimSpace(nStr)
	if nStr == "" {
		return xs, nil
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 0 {
		return nil, badParam("n", nStr)
	}
	return xs[len(xs)-min(n, len(xs)):], nil
}

func badParam(name, v string) error {
	return fmt.Errorf("obs: query parameter %s=%q is not a non-negative number", name, v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
