package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"labstor/internal/vtime"
)

// Well-known flight-recorder event kinds. Kinds are dotted families so
// /events?kind=slo matches every slo.* event by prefix.
const (
	EvRuntime      = "runtime.lifecycle" // start/shutdown/crash/restart
	EvWorker       = "worker.lifecycle"  // worker activation changes
	EvRebalance    = "orchestrator.rebalance"
	EvUpgrade      = "mod.upgrade"   // live upgrade applied/failed
	EvRequestError = "request.error" // an errored request completed
	EvSLOBreach    = "slo.breach"    // a watchdog target went out of SLO
	EvSLORecover   = "slo.recover"   // a breached target came back
	EvObserve      = "obs.server"    // observability server lifecycle
	EvBundle       = "obs.bundle"    // incident diagnostic bundle captured/skipped
)

// Event is one structured flight-recorder entry: what happened, when — both
// on the host wall clock (postmortems line up with external logs) and on the
// runtime's virtual timeline (events line up with modeled request latency).
type Event struct {
	Seq    uint64            `json:"seq"`
	Wall   time.Time         `json:"wall"`
	VT     vtime.Time        `json:"vt_ns"`
	Kind   string            `json:"kind"`
	Msg    string            `json:"msg"`
	Fields map[string]string `json:"fields,omitempty"`
}

// String renders the event as one log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s vt=%v %s: %s", e.Seq, e.Wall.Format("15:04:05.000"), e.VT, e.Kind, e.Msg)
	if len(e.Fields) > 0 {
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, e.Fields[k])
		}
	}
	return b.String()
}

// FlightRing is the flight recorder's event capacity.
const FlightRing = 256

// FlightRecorder is a bounded ring of runtime events — the blackbox that
// gives a postmortem the *history* leading up to a fault, not just the final
// snapshot. Events are rare (rebalances, upgrades, breaches, errors) so the
// data path never contends on the ring's mutex.
type FlightRecorder struct {
	ring *ring[Event]
	seq  atomic.Uint64
}

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder() *FlightRecorder { return &FlightRecorder{ring: newRing[Event](FlightRing)} }

// Record appends an event, stamping sequence and wall time. fields may be
// nil. It returns the stored event (tests and callers that also log it).
func (fr *FlightRecorder) Record(kind, msg string, vt vtime.Time, fields map[string]string) Event {
	e := Event{
		Seq:    fr.seq.Add(1),
		Wall:   time.Now(),
		VT:     vt,
		Kind:   kind,
		Msg:    msg,
		Fields: fields,
	}
	fr.ring.push(e)
	return e
}

// Recordf is Record with a formatted message and no fields.
func (fr *FlightRecorder) Recordf(kind string, vt vtime.Time, format string, args ...any) Event {
	return fr.Record(kind, fmt.Sprintf(format, args...), vt, nil)
}

// Recorded returns the total number of events recorded (including evicted).
func (fr *FlightRecorder) Recorded() int64 { return fr.ring.total() }

// Recent returns the retained events, oldest first.
func (fr *FlightRecorder) Recent() []Event { return fr.ring.recent() }

// Filter returns the retained events whose Kind matches the given dotted
// prefix ("slo" matches "slo.breach"; "" matches everything), oldest first.
func (fr *FlightRecorder) Filter(kindPrefix string) []Event {
	all := fr.Recent()
	if kindPrefix == "" {
		return all
	}
	out := all[:0]
	for _, e := range all {
		if e.Kind == kindPrefix || strings.HasPrefix(e.Kind, kindPrefix+".") {
			out = append(out, e)
		}
	}
	return out
}

// Dump writes the retained events to w as log lines, oldest first — the
// panic/fatal-error postmortem path.
func (fr *FlightRecorder) Dump(w io.Writer) {
	events := fr.Recent()
	fmt.Fprintf(w, "=== flight recorder: %d retained of %d recorded ===\n", len(events), fr.Recorded())
	for _, e := range events {
		fmt.Fprintln(w, e.String())
	}
}
