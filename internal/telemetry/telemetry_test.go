package telemetry

import (
	"fmt"
	"sync"
	"testing"

	"labstor/internal/vtime"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Fatal("Counter(\"a\") returned two distinct instances")
	}
	c1.Inc()
	c2.Add(2)
	if got := r.Counter("a").Value(); got != 3 {
		t.Fatalf("counter value = %d, want 3", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	if got := r.Gauge("g").Value(); got != 7 {
		t.Fatalf("gauge value = %d, want 7", got)
	}
	r.Observe("h", 10)
	r.Observe("h", 20)
	if got := r.Histogram("h").Count(); got != 2 {
		t.Fatalf("histogram count = %d, want 2", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Add("reqs", 5)
	r.Gauge("depth").Set(3)
	r.Observe("lat_us", 100)
	r.Observe("lat_us", 300)

	s := r.Snapshot()
	if s.Counters["reqs"] != 5 {
		t.Fatalf("snapshot counter = %d, want 5", s.Counters["reqs"])
	}
	if s.Gauges["depth"] != 3 {
		t.Fatalf("snapshot gauge = %d, want 3", s.Gauges["depth"])
	}
	h, ok := s.Histograms["lat_us"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if h.Count != 2 || h.Max != 300 {
		t.Fatalf("histogram snapshot = %+v, want count=2 max=300", h)
	}
	if h.Mean != 200 {
		t.Fatalf("histogram mean = %v, want 200", h.Mean)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("per-%d", g%4)).Inc()
				r.Observe("h", float64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}

func mkTrace(id uint64) Trace {
	return Trace{
		ReqID: id, Op: "write", Stack: "fs::/t", Worker: 0,
		Arrival: vtime.Time(0), Start: vtime.Time(10), End: vtime.Time(30),
		Spans: []Span{{Stage: "ipc", Cost: 5}, {Stage: "io", Cost: 15}},
	}
}

// TestTracerRingBounded pins the sampled ring's bookkeeping (its wrap order
// is TestRing's): Captured counts evictions too, and only sampled traces
// enter it.
func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer()
	for i := uint64(1); i <= TraceRing+6; i++ {
		tr.Capture(mkTrace(i), true, false)
	}
	tr.Capture(mkTrace(0), false, true) // tail only
	if tr.Captured() != TraceRing+6 {
		t.Fatalf("Captured = %d, want %d", tr.Captured(), TraceRing+6)
	}
	recent := tr.Recent()
	if len(recent) != TraceRing || recent[0].ReqID != 7 || recent[len(recent)-1].ReqID != TraceRing+6 {
		t.Fatalf("ring retained %d traces, IDs %d..%d; want %d, 7..%d",
			len(recent), recent[0].ReqID, recent[len(recent)-1].ReqID, TraceRing, TraceRing+6)
	}
}

func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer()
	tr.Capture(mkTrace(1), true, false)
	tr.Capture(mkTrace(2), true, false)
	recent := tr.Recent()
	if len(recent) != 2 || recent[0].ReqID != 1 || recent[1].ReqID != 2 {
		t.Fatalf("partial ring = %v", recent)
	}
}

func TestTraceDerived(t *testing.T) {
	tc := mkTrace(1)
	if tc.Latency() != 30 {
		t.Fatalf("Latency = %v, want 30", tc.Latency())
	}
	s := tc.String()
	for _, want := range []string{"write", "fs::/t", "ipc", "io"} {
		if !contains(s, want) {
			t.Fatalf("Trace.String() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
