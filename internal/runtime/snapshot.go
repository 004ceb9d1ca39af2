package runtime

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"labstor/internal/core"
	"labstor/internal/ipc"
	"labstor/internal/stats"
	"labstor/internal/telemetry"
)

// QueueStats is one queue pair's snapshot: ring traffic from internal/ipc
// plus the orchestrator's demand estimates and the worker(s) currently
// assigned to drain it.
type QueueStats struct {
	ipc.QueuePairStats
	// Rate is the observed utilization rate (CPU-time per virtual time),
	// EstUS the EWMA per-request cost estimate driving LQ/CQ classification.
	Rate  float64 `json:"rate"`
	EstUS float64 `json:"est_us"`
	// Workers lists the worker IDs assigned this queue.
	Workers []int `json:"workers"`
}

// OrchestratorStats is the Work Orchestrator's snapshot.
type OrchestratorStats struct {
	Policy        string            `json:"policy"`
	Rebalances    int               `json:"rebalances"`
	ActiveWorkers int               `json:"active_workers"`
	LastDecision  RebalanceDecision `json:"last_decision"`
}

// Snapshot is the Runtime's full typed metrics tree: per-worker, per-queue
// and per-stage breakdowns, subsystem stats, the generic metric registry
// and the retained request traces. Everything EXPERIMENTS.md tables report
// is derivable from this tree.
type Snapshot struct {
	Workers      []WorkerStats             `json:"workers"`
	Queues       []QueueStats              `json:"queues"`
	Stages       []PerfCounter             `json:"stages"`
	Orchestrator OrchestratorStats         `json:"orchestrator"`
	Upgrades     UpgradeStats              `json:"upgrades"`
	Metrics      telemetry.MetricsSnapshot `json:"metrics"`
	Traces       []telemetry.Trace         `json:"traces"`
	// ErrorTraces is the tracer's bounded error ring: every errored request
	// regardless of the sampling period, oldest first.
	ErrorTraces []telemetry.Trace `json:"error_traces,omitempty"`
	// SLOs is the watchdog's per-target evaluation state (absent when no
	// targets are configured).
	SLOs []SLOStatus `json:"slos,omitempty"`
	// Events is the flight recorder's retained tail, oldest first.
	Events []telemetry.Event `json:"events,omitempty"`
	// Attribution is the always-on per-stack latency-attribution table.
	Attribution []telemetry.StackAttribution `json:"attribution,omitempty"`
	// CopySites is the per-site data-path copy accounting (zero-copy audit):
	// every remaining memcpy on the payload path counts itself here.
	CopySites []telemetry.CopySiteStat `json:"copy_sites,omitempty"`
}

// Snapshot collects the full telemetry tree from a running (or stopped)
// Runtime. It is safe to call concurrently with request processing; values
// are individually consistent, not a global atomic cut.
func (rt *Runtime) Snapshot() *Snapshot {
	// Publish request-pool stats (process-wide sync.Pool counters) as gauges
	// so they appear in the metrics tree alongside ring/worker counters.
	ps := core.RequestPoolStats()
	rt.metrics.Gauge("reqpool.gets").Set(ps.Gets)
	rt.metrics.Gauge("reqpool.hits").Set(ps.Hits)
	rt.metrics.Gauge("reqpool.misses").Set(ps.Misses)
	rt.metrics.Gauge("reqpool.releases").Set(ps.Releases)

	// Payload-arena counters (size-class buffer recycling on the data path).
	as := core.BufArenaStats()
	rt.metrics.Gauge("bufarena.gets").Set(as.Gets)
	rt.metrics.Gauge("bufarena.hits").Set(as.Hits)
	rt.metrics.Gauge("bufarena.misses").Set(as.Misses)
	rt.metrics.Gauge("bufarena.releases").Set(as.Releases)
	rt.metrics.Gauge("bufarena.bytes").Set(as.Bytes)

	snap := &Snapshot{
		Workers: rt.Stats(),
		Stages:  rt.PerfCounters(),
		Orchestrator: OrchestratorStats{
			Policy:        rt.opts.Policy,
			Rebalances:    rt.orch.Rebalances(),
			ActiveWorkers: rt.ActiveWorkers(),
			LastDecision:  rt.orch.LastDecision(),
		},
		Upgrades:    rt.UpgradeStats(),
		Metrics:     rt.metrics.Snapshot(),
		Traces:      rt.tracer.Recent(),
		ErrorTraces: rt.tracer.RecentErrors(),
		SLOs:        rt.SLOStatus(),
		Events:      rt.events.Recent(),
		Attribution: rt.Attribution(),
		CopySites:   telemetry.CopySiteStats(),
	}
	sort.Slice(snap.Stages, func(i, j int) bool { return snap.Stages[i].Stage < snap.Stages[j].Stage })

	// Queue view: ring stats joined with orchestrator demand and the
	// current queue→worker assignment.
	demand := make(map[int]QueueDemand)
	for _, d := range rt.orch.QueueDemands() {
		demand[d.ID] = d
	}
	assigned := make(map[int][]int)
	for _, ws := range snap.Workers {
		for _, qid := range ws.Queues {
			assigned[qid] = append(assigned[qid], ws.ID)
		}
	}
	for _, qp := range rt.orch.Queues() {
		qs := QueueStats{QueuePairStats: qp.Stats(), Workers: assigned[qp.ID]}
		if d, ok := demand[qp.ID]; ok {
			qs.Rate = d.Rate
			qs.EstUS = d.EstNS / 1e3
		}
		snap.Queues = append(snap.Queues, qs)
	}
	sort.Slice(snap.Queues, func(i, j int) bool { return snap.Queues[i].ID < snap.Queues[j].ID })
	return snap
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// String renders the snapshot as aligned text tables (stats.Table), one
// section per subsystem.
func (s *Snapshot) String() string {
	var b strings.Builder

	b.WriteString("== workers ==\n")
	wt := &stats.Table{Header: []string{"id", "active", "processed", "busy", "clock", "polls", "empty%", "parks", "spin", "queues"}}
	for _, w := range s.Workers {
		ids := make([]string, len(w.Queues))
		for i, q := range w.Queues {
			ids[i] = fmt.Sprint(q)
		}
		wt.AddRowf(w.ID, w.Active, w.Processed, w.BusyVirt.String(), fmt.Sprint(w.Clock),
			w.Polls, 100*w.IdleRatio(), w.Parks, w.SpinWindow.String(), strings.Join(ids, ","))
	}
	b.WriteString(wt.String())

	b.WriteString("\n== queues ==\n")
	qt := &stats.Table{Header: []string{"id", "kind", "owner", "sq_depth", "inflight", "enq", "done", "rejects", "rate", "est_us", "workers"}}
	for _, q := range s.Queues {
		ids := make([]string, len(q.Workers))
		for i, w := range q.Workers {
			ids[i] = fmt.Sprint(w)
		}
		qt.AddRowf(q.ID, q.Kind, q.Owner, q.SQ.Depth, q.Inflight,
			q.SQ.Enqueued, q.CQ.Enqueued, q.SQ.Rejects, q.Rate, q.EstUS, strings.Join(ids, ","))
	}
	b.WriteString(qt.String())

	b.WriteString("\n== stages (sampled) ==\n")
	st := &stats.Table{Header: []string{"stage", "ops", "total", "mean"}}
	for _, c := range s.Stages {
		st.AddRowf(c.Stage, c.Ops, c.Total.String(), c.Mean.String())
	}
	b.WriteString(st.String())

	b.WriteString("\n== orchestrator ==\n")
	fmt.Fprintf(&b, "policy=%s rebalances=%d active_workers=%d\n",
		s.Orchestrator.Policy, s.Orchestrator.Rebalances, s.Orchestrator.ActiveWorkers)
	d := s.Orchestrator.LastDecision
	if d.LQs+d.CQs > 0 {
		fmt.Fprintf(&b, "last decision: %d LQs on %d workers (load %.3f), %d CQs on %d workers (load %.3f)\n",
			d.LQs, d.LQWorkers, d.LQLoad, d.CQs, d.CQWorkers, d.CQLoad)
	}

	b.WriteString("\n== upgrades ==\n")
	fmt.Fprintf(&b, "done=%d last_vt=%s total_vt=%s quiesce=%s apply=%s\n",
		s.Upgrades.Done, s.Upgrades.LastVT, s.Upgrades.TotalVT,
		s.Upgrades.LastQuiesceWall, s.Upgrades.LastApplyWall)

	b.WriteString("\n== counters ==\n")
	ct := &stats.Table{Header: []string{"name", "value"}}
	for _, k := range telemetry.SortedKeys(s.Metrics.Counters) {
		ct.AddRowf(k, s.Metrics.Counters[k])
	}
	for _, k := range telemetry.SortedKeys(s.Metrics.Gauges) {
		ct.AddRowf(k+" (gauge)", s.Metrics.Gauges[k])
	}
	b.WriteString(ct.String())

	if len(s.Metrics.Histograms) > 0 {
		b.WriteString("\n== histograms ==\n")
		ht := &stats.Table{Header: []string{"name", "count", "mean", "min", "p50", "p90", "p99", "p999", "max"}}
		for _, k := range telemetry.SortedKeys(s.Metrics.Histograms) {
			h := s.Metrics.Histograms[k]
			ht.AddRowf(k, h.Count, h.Mean, h.Min, h.P50, h.P90, h.P99, h.P999, h.Max)
		}
		b.WriteString(ht.String())
	}

	if len(s.CopySites) > 0 {
		b.WriteString("\n== copy sites ==\n")
		cs := &stats.Table{Header: []string{"site", "copies", "bytes"}}
		for _, c := range s.CopySites {
			cs.AddRowf(c.Site, c.Count, c.Bytes)
		}
		b.WriteString(cs.String())
	}

	if len(s.SLOs) > 0 {
		b.WriteString("\n== slos ==\n")
		lt := &stats.Table{Header: []string{"stack", "ok", "p99_us", "target_p99", "err_rate", "target_err", "breaches", "evals"}}
		for _, o := range s.SLOs {
			state := "OK"
			if !o.OK {
				state = "BREACH"
			}
			lt.AddRowf(o.Stack, state, o.P99US, o.TargetP99US, o.ErrRate, o.TargetErrRate, o.Breaches, o.Evals)
		}
		b.WriteString(lt.String())
	}

	if len(s.Attribution) > 0 {
		b.WriteString("\n== attribution ==\n")
		at := &stats.Table{Header: []string{"stack", "requests", "errors", "mean_us", "wait%", "cpu%", "device%", "sampled", "tail"}}
		for _, sa := range s.Attribution {
			at.AddRowf(sa.Stack, sa.Requests, sa.Errors, sa.MeanLatencyUS,
				sa.QueueWaitPct, sa.CPUPct, sa.DevicePct, sa.Sampled, sa.TailRetained)
		}
		b.WriteString(at.String())
	}

	if len(s.Traces) > 0 {
		b.WriteString("\n== recent traces ==\n")
		n := len(s.Traces)
		const show = 10
		if n > show {
			fmt.Fprintf(&b, "(%d retained, showing last %d)\n", n, show)
		}
		for _, t := range s.Traces[max(0, n-show):] {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}

	if len(s.ErrorTraces) > 0 {
		b.WriteString("\n== error traces ==\n")
		n := len(s.ErrorTraces)
		const show = 5
		if n > show {
			fmt.Fprintf(&b, "(%d retained, showing last %d)\n", n, show)
		}
		for _, t := range s.ErrorTraces[max(0, n-show):] {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}

	if len(s.Events) > 0 {
		b.WriteString("\n== flight recorder ==\n")
		n := len(s.Events)
		const show = 12
		if n > show {
			fmt.Fprintf(&b, "(%d retained, showing last %d)\n", n, show)
		}
		for _, ev := range s.Events[max(0, n-show):] {
			b.WriteString(ev.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
