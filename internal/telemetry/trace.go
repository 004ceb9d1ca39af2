package telemetry

import (
	"fmt"
	"strings"

	"labstor/internal/vtime"
)

// Span is one pipeline stage a traced request crossed, with the virtual
// time it charged (the request "anatomy" of the paper's Fig. 4a).
type Span struct {
	Stage string         `json:"stage"`
	Cost  vtime.Duration `json:"cost_ns"`
}

// Trace is one sampled request's end-to-end record: identity, routing
// (stack, queue, worker), virtual-time milestones and the per-stage spans.
type Trace struct {
	ReqID   uint64 `json:"req_id"`
	Op      string `json:"op"`
	Stack   string `json:"stack"`
	StackID int    `json:"stack_id"`
	Queue   int    `json:"queue"`
	Worker  int    `json:"worker"`

	Arrival vtime.Time `json:"arrival_ns"` // client submission (virtual)
	Start   vtime.Time `json:"start_ns"`   // worker began service (virtual)
	End     vtime.Time `json:"end_ns"`     // request clock at completion

	// QueueWait is Start-Arrival: queue-op + IPC charges plus time the
	// request sat behind other work on the worker's virtual clock.
	QueueWait vtime.Duration `json:"queue_wait_ns"`
	CPU       vtime.Duration `json:"cpu_ns"`

	Err   string `json:"err,omitempty"`
	Spans []Span `json:"spans"`
}

// Latency returns the trace's modeled end-to-end latency.
func (t Trace) Latency() vtime.Duration { return t.End.Sub(t.Arrival) }

// String renders a one-line summary plus the span chain.
func (t Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "req#%d %s stack=%s queue=%d worker=%d lat=%s wait=%s cpu=%s",
		t.ReqID, t.Op, t.Stack, t.Queue, t.Worker, t.Latency(), t.QueueWait, t.CPU)
	if t.Err != "" {
		fmt.Fprintf(&b, " err=%q", t.Err)
	}
	for _, s := range t.Spans {
		fmt.Fprintf(&b, " | %s=%s", s.Stage, s.Cost)
	}
	return b.String()
}

// Trace ring capacities.
const (
	TraceRing = 256 // sampled traces
	ErrorRing = 64  // errored traces, whatever the sampler picked
	TailRing  = 64  // tail outliers, whatever the sampler picked
)

// Tracer keeps three bounded rings of recent traces: the 1-in-N sampled
// requests, every errored request and every tail outlier. Failures and
// outliers are the traces a debugger needs most, and with 1-in-N sampling
// they would otherwise almost always be lost.
type Tracer struct {
	sampled, errs, tail *ring[Trace]
}

// NewTracer returns a tracer with empty rings.
func NewTracer() *Tracer {
	return &Tracer{sampled: newRing[Trace](TraceRing), errs: newRing[Trace](ErrorRing), tail: newRing[Trace](TailRing)}
}

// Capture retains one completed request's trace in every ring it qualifies
// for: the sampled ring when sampled, the tail ring when tail, and the
// error ring when t.Err is set.
func (tr *Tracer) Capture(t Trace, sampled, tail bool) {
	if sampled {
		tr.sampled.push(t)
	}
	if t.Err != "" {
		tr.errs.push(t)
	}
	if tail {
		tr.tail.push(t)
	}
}

// Captured returns the total number of sampled traces captured (including
// evicted).
func (tr *Tracer) Captured() int64 { return tr.sampled.total() }

// ErrorsCaptured returns the total number of errored traces retained in the
// error ring (including evicted).
func (tr *Tracer) ErrorsCaptured() int64 { return tr.errs.total() }

// TailCaptured returns the total number of tail-outlier traces retained
// (including evicted).
func (tr *Tracer) TailCaptured() int64 { return tr.tail.total() }

// Recent returns the retained sampled traces, oldest first.
func (tr *Tracer) Recent() []Trace { return tr.sampled.recent() }

// RecentErrors returns the retained errored traces, oldest first.
func (tr *Tracer) RecentErrors() []Trace { return tr.errs.recent() }

// RecentTail returns the retained tail-outlier traces, oldest first.
func (tr *Tracer) RecentTail() []Trace { return tr.tail.recent() }
