package telemetry

import (
	"strings"
	"sync"
	"testing"

	"labstor/internal/vtime"
)

// TestFlightRecorderRingBounded pins the recorder's bookkeeping over its
// ring (whose wrap order TestRing covers): Recorded counts evictions too, and
// the survivors are the newest FlightRing events, sequenced oldest first.
func TestFlightRecorderRingBounded(t *testing.T) {
	fr := NewFlightRecorder()
	for i := 0; i < FlightRing+6; i++ {
		fr.Record(EvWorker, "tick", vtime.Time(i), nil)
	}
	if fr.Recorded() != FlightRing+6 {
		t.Fatalf("Recorded = %d, want %d", fr.Recorded(), FlightRing+6)
	}
	recent := fr.Recent()
	if len(recent) != FlightRing || recent[0].Seq != 7 || recent[len(recent)-1].Seq != FlightRing+6 {
		t.Fatalf("retained %d events, seq %d..%d; want %d, 7..%d",
			len(recent), recent[0].Seq, recent[len(recent)-1].Seq, FlightRing, FlightRing+6)
	}
}

func TestFlightRecorderPartialAndDefaults(t *testing.T) {
	fr := NewFlightRecorder()
	fr.Recordf(EvRebalance, 5, "moved %d queues", 3)
	fr.Record(EvSLOBreach, "p99 over", 9, map[string]string{"stack": "fs::/a"})
	recent := fr.Recent()
	if len(recent) != 2 {
		t.Fatalf("retained %d, want 2", len(recent))
	}
	if recent[0].Msg != "moved 3 queues" || recent[0].VT != 5 {
		t.Fatalf("recordf event = %+v", recent[0])
	}
	s := recent[1].String()
	for _, want := range []string{EvSLOBreach, "p99 over", "stack=fs::/a"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Event.String() = %q, missing %q", s, want)
		}
	}
}

func TestFlightRecorderFilter(t *testing.T) {
	fr := NewFlightRecorder()
	fr.Record(EvSLOBreach, "b", 1, nil)
	fr.Record(EvSLORecover, "r", 2, nil)
	fr.Record(EvUpgrade, "u", 3, nil)
	if got := len(fr.Filter("slo")); got != 2 {
		t.Fatalf("Filter(slo) = %d events, want 2", got)
	}
	if got := len(fr.Filter("slo.breach")); got != 1 {
		t.Fatalf("Filter(slo.breach) = %d events, want 1", got)
	}
	if got := len(fr.Filter("")); got != 3 {
		t.Fatalf("Filter(\"\") = %d events, want 3", got)
	}
	// Prefixes match dotted families, not raw substrings.
	if got := len(fr.Filter("sl")); got != 0 {
		t.Fatalf("Filter(sl) = %d events, want 0", got)
	}
}

func TestFlightRecorderDump(t *testing.T) {
	fr := NewFlightRecorder()
	fr.Record(EvRuntime, "started", 0, nil)
	fr.Record(EvRequestError, "boom", 7, map[string]string{"op": "read"})
	var b strings.Builder
	fr.Dump(&b)
	out := b.String()
	for _, want := range []string{"flight recorder", "started", "boom", "op=read"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Dump output missing %q:\n%s", want, out)
		}
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				fr.Record(EvWorker, "tick", vtime.Time(i), nil)
				if i%100 == 0 {
					_ = fr.Recent()
				}
			}
		}()
	}
	wg.Wait()
	if fr.Recorded() != 4000 {
		t.Fatalf("Recorded = %d, want 4000", fr.Recorded())
	}
	if len(fr.Recent()) != FlightRing {
		t.Fatalf("retained %d, want %d", len(fr.Recent()), FlightRing)
	}
}

func TestTracerErrorRing(t *testing.T) {
	tr := NewTracer()
	// Sampled captures with errors also land in the error ring.
	errTrace := mkTrace(1)
	errTrace.Err = "EIO"
	tr.Capture(errTrace, true, false)
	tr.Capture(mkTrace(2), true, false) // clean: main ring only
	// Unsampled errors land in the error ring without touching the main ring.
	only := mkTrace(3)
	only.Err = "ENOSPC"
	tr.Capture(only, false, false)

	if got := tr.ErrorsCaptured(); got != 2 {
		t.Fatalf("ErrorsCaptured = %d, want 2", got)
	}
	errs := tr.RecentErrors()
	if len(errs) != 2 || errs[0].ReqID != 1 || errs[1].ReqID != 3 {
		t.Fatalf("RecentErrors = %+v", errs)
	}
	if got := len(tr.Recent()); got != 2 {
		t.Fatalf("main ring has %d traces, want 2 (an unsampled error leaked in)", got)
	}
}

func TestTracerErrorRingBoundedAndSink(t *testing.T) {
	tr := NewTracer()
	for i := uint64(1); i <= uint64(ErrorRing)+5; i++ {
		tc := mkTrace(i)
		tc.Err = "EIO"
		tr.Capture(tc, false, false)
	}
	errs := tr.RecentErrors()
	if len(errs) != ErrorRing {
		t.Fatalf("error ring retained %d, want %d", len(errs), ErrorRing)
	}
	if errs[len(errs)-1].ReqID != uint64(ErrorRing)+5 {
		t.Fatalf("last error ReqID = %d", errs[len(errs)-1].ReqID)
	}
}
