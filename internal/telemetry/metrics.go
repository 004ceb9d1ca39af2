// Package telemetry is the runtime observability layer: a lock-cheap
// metrics registry (atomic counters and gauges plus log2 latency
// histograms from internal/stats), the Profile every completed request is
// folded into once, and a structured request tracer that turns sampled,
// errored and tail-outlier requests into spans — request ID, stack,
// per-stage enter/exit in virtual time, queue wait, worker ID — kept in
// bounded in-memory rings.
//
// The paper's Work Orchestrator (§III-C) consumes per-queue latency and
// compute estimates, and the whole evaluation (§IV "Anatomy of I/O") is
// built on per-stage measurements; this package is the machinery that
// makes those measurements available from a running Runtime rather than
// from ad-hoc prints. Metric writes on hot paths are single atomic adds;
// histograms and traces are only touched for sampled requests.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"labstor/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a concurrent name → metric registry. Lookups are sync.Map
// reads; callers on hot paths should cache the returned metric pointer at
// setup time so the per-event cost is one atomic add.
type Registry struct {
	counters sync.Map // string -> *Counter
	gauges   sync.Map // string -> *Gauge
	hists    sync.Map // string -> *stats.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Add increments the named counter by n.
func (r *Registry) Add(name string, n int64) { r.Counter(name).Add(n) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// Histogram returns the named log2 histogram, creating it on first use.
func (r *Registry) Histogram(name string) *stats.Histogram {
	if v, ok := r.hists.Load(name); ok {
		return v.(*stats.Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, &stats.Histogram{})
	return v.(*stats.Histogram)
}

// Observe records v into the named histogram.
func (r *Registry) Observe(name string, v float64) { r.Histogram(name).Observe(v) }

// HistogramSnapshot is a histogram's summarized state: count, mean, the
// exact min/max, and the quantile ladder SLO evaluation and the Prometheus
// exposition both consume (so neither re-derives quantiles from buckets).
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// MetricsSnapshot is a point-in-time copy of every registered metric.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies all metrics. The maps are freshly allocated and safe to
// retain; zero-valued counters created but never incremented are included
// (the name set documents what is instrumented), but histograms with no
// observations are omitted — an empty distribution has no summary.
func (r *Registry) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.counters.Range(func(k, v any) bool {
		snap.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		snap.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	r.hists.Range(func(k, v any) bool {
		h := v.(*stats.Histogram)
		st := h.State()
		if st.Count == 0 {
			return true
		}
		snap.Histograms[k.(string)] = HistogramSnapshot{
			Count: st.Count,
			Mean:  st.Mean(),
			Min:   st.Min,
			P50:   st.Quantile(0.5),
			P90:   st.Quantile(0.9),
			P99:   st.Quantile(0.99),
			P999:  st.Quantile(0.999),
			Max:   st.Max,
		}
		return true
	})
	return snap
}

// SortedKeys returns the keys of a snapshot map in stable order (for
// rendering and tests).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
