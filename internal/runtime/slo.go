package runtime

import (
	"fmt"
	"sync"

	"labstor/internal/stats"
	"labstor/internal/telemetry"
)

// SLOTarget is one stack's declared service-level objective, parsed from the
// runtime configuration's `slo:` section. Zero-valued limits are not
// enforced (a target may bound only latency, only errors, or both).
type SLOTarget struct {
	// Stack is the mount point the target applies to (e.g. "fs::/probe").
	Stack string
	// P99US bounds the stack's p99 modeled latency in microseconds,
	// evaluated over each watchdog window from sampled-request histograms.
	P99US float64
	// MaxErrRate bounds the stack's completed-request error fraction
	// (0.01 = 1%), evaluated over each watchdog window from full counts.
	MaxErrRate float64
}

// SLOStatus is one target's live evaluation state, exported through
// Runtime.SLOStatus, the snapshot tree and `labctl top`.
type SLOStatus struct {
	Stack         string  `json:"stack"`
	TargetP99US   float64 `json:"target_p99_us,omitempty"`
	TargetErrRate float64 `json:"target_max_err_rate,omitempty"`
	// Window observations from the most recent evaluation.
	P99US    float64 `json:"p99_us"`
	ErrRate  float64 `json:"err_rate"`
	Samples  int64   `json:"samples"`
	Requests int64   `json:"requests"`
	OK       bool    `json:"ok"`
	// Breaches counts breaching evaluations; Evals all evaluations.
	Breaches int64 `json:"breaches"`
	Evals    int64 `json:"evals"`
}

// sloMinWindowSamples is the fewest sampled latencies a window must contain
// before its p99 is trusted (tiny windows make q=0.99 degenerate).
const sloMinWindowSamples = 5

// sloState is the watchdog's per-target evaluation state: the previous
// window boundary (histogram accumulator + counters) and cached metric
// handles for the slo.* gauge family.
type sloState struct {
	target SLOTarget
	ok     bool

	prevHist stats.HistogramState
	prevReqs int64
	prevErrs int64

	lastP99     float64
	lastErrRate float64
	lastSamples int64
	lastReqs    int64
	breaches    int64
	evals       int64

	gOK     *telemetry.Gauge
	gP99    *telemetry.Gauge
	gErrPPM *telemetry.Gauge
	cBreach *telemetry.Counter
}

// sloWatchdog periodically evaluates every configured target against the
// per-stack telemetry deltas and publishes the verdicts as slo.* metrics
// and flight-recorder events (the policy-readable face the orchestrator and
// future admission control consume).
type sloWatchdog struct {
	rt *Runtime

	mu     sync.Mutex
	states []*sloState
}

func newSLOWatchdog(rt *Runtime, targets []SLOTarget) *sloWatchdog {
	wd := &sloWatchdog{rt: rt}
	for _, tgt := range targets {
		label := ";stack=" + tgt.Stack
		wd.states = append(wd.states, &sloState{
			target:  tgt,
			ok:      true,
			gOK:     rt.metrics.Gauge("slo.ok" + label),
			gP99:    rt.metrics.Gauge("slo.p99_us" + label),
			gErrPPM: rt.metrics.Gauge("slo.err_rate_ppm" + label),
			cBreach: rt.metrics.Counter("slo.breaches" + label),
		})
		// Targets start in-SLO until evidence says otherwise.
		wd.states[len(wd.states)-1].gOK.Set(1)
	}
	return wd
}

// Evaluate runs one watchdog pass over every target. It is called by the
// runtime's control loop every SLOCheckEvery, and directly by tests.
func (wd *sloWatchdog) Evaluate() {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	vnow := wd.rt.vnow()
	for _, st := range wd.states {
		sp := wd.rt.profile.Stack(st.target.Stack)
		if sp == nil {
			continue // no completions on the stack (yet): nothing to evaluate
		}
		st.evals++

		hist := sp.Latency()
		reqs := sp.Requests()
		errs := sp.Errors()
		window := hist.Delta(st.prevHist)
		dReqs := reqs - st.prevReqs
		dErrs := errs - st.prevErrs
		st.prevHist = hist
		st.prevReqs = reqs
		st.prevErrs = errs

		// p99 over the window's sampled latencies; carried when the window
		// is too thin to trust (an idle stack keeps its last verdict input).
		if window.Count >= sloMinWindowSamples {
			st.lastP99 = window.Quantile(0.99)
		}
		st.lastSamples = window.Count
		st.lastReqs = dReqs
		if dReqs > 0 {
			st.lastErrRate = float64(dErrs) / float64(dReqs)
		} else {
			st.lastErrRate = 0
		}

		breachP99 := st.target.P99US > 0 && st.lastSamples >= sloMinWindowSamples && st.lastP99 > st.target.P99US
		breachErr := st.target.MaxErrRate > 0 && dReqs > 0 && st.lastErrRate > st.target.MaxErrRate
		breached := breachP99 || breachErr

		st.gP99.Set(int64(st.lastP99))
		st.gErrPPM.Set(int64(st.lastErrRate * 1e6))
		if breached {
			st.breaches++
			st.cBreach.Inc()
			wd.rt.metrics.Counter("slo.breaches").Inc()
			st.gOK.Set(0)
		} else {
			st.gOK.Set(1)
		}

		// Flight-recorder events on state transitions only, so a sustained
		// breach is one event, not one per evaluation.
		if breached && st.ok {
			st.ok = false
			wd.rt.events.Record(telemetry.EvSLOBreach,
				fmt.Sprintf("stack %s out of SLO", st.target.Stack), vnow,
				map[string]string{
					"stack":          st.target.Stack,
					"p99_us":         fmt.Sprintf("%.1f", st.lastP99),
					"target_p99_us":  fmt.Sprintf("%.1f", st.target.P99US),
					"err_rate":       fmt.Sprintf("%.4f", st.lastErrRate),
					"target_err":     fmt.Sprintf("%.4f", st.target.MaxErrRate),
					"window_samples": fmt.Sprintf("%d", st.lastSamples),
				})
			// Breach transitions fan out to registered hooks (incident-bundle
			// capture); each hook runs on its own goroutine.
			wd.rt.notifyBreach(st.status())
		} else if !breached && !st.ok {
			st.ok = true
			wd.rt.events.Record(telemetry.EvSLORecover,
				fmt.Sprintf("stack %s back in SLO", st.target.Stack), vnow,
				map[string]string{
					"stack":  st.target.Stack,
					"p99_us": fmt.Sprintf("%.1f", st.lastP99),
				})
		}
	}
}

// status renders one target's current evaluation state (caller holds wd.mu).
func (st *sloState) status() SLOStatus {
	return SLOStatus{
		Stack:         st.target.Stack,
		TargetP99US:   st.target.P99US,
		TargetErrRate: st.target.MaxErrRate,
		P99US:         st.lastP99,
		ErrRate:       st.lastErrRate,
		Samples:       st.lastSamples,
		Requests:      st.lastReqs,
		OK:            st.ok,
		Breaches:      st.breaches,
		Evals:         st.evals,
	}
}

// Status returns every target's current evaluation state.
func (wd *sloWatchdog) Status() []SLOStatus {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	out := make([]SLOStatus, 0, len(wd.states))
	for _, st := range wd.states {
		out = append(out, st.status())
	}
	return out
}
