package core

import "testing"

// TestAcquireReleaseReset checks that a recycled request comes back clean: a
// fresh ID, a pending completion word, zeroed fields, and an empty (but reusable)
// stage slice.
func TestAcquireReleaseReset(t *testing.T) {
	r := AcquireRequest(OpWrite)
	if r.Op != OpWrite {
		t.Fatalf("op = %v", r.Op)
	}
	firstID := r.ID
	// Dirty every recycled-sensitive field.
	r.Path = "/x"
	r.Data = []byte("payload")
	r.Err = errTestSentinel
	r.Result = 99
	r.Trace = true
	r.Charge("stage", 100)
	if len(r.Stages) == 0 {
		t.Fatal("Charge with Trace did not record a stage")
	}
	r.MarkDone()
	r.Release()

	r2 := AcquireRequest(OpRead)
	if r2.ID == firstID {
		t.Fatal("recycled request kept its old ID")
	}
	if r2.Op != OpRead || r2.Path != "" || r2.Data != nil || r2.Err != nil ||
		r2.Result != 0 || r2.Trace || len(r2.Stages) != 0 || r2.Clock != 0 {
		t.Fatalf("recycled request not reset: %+v", r2)
	}
	if r2.Done() {
		t.Fatal("recycled request kept its completed completion word")
	}
	r2.Release()
}

// TestPoolStatsAccounting checks the hit/miss arithmetic: gets = hits+misses
// and the counters move with traffic.
func TestPoolStatsAccounting(t *testing.T) {
	before := RequestPoolStats()
	const n = 32
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = AcquireRequest(OpMessage)
	}
	for _, r := range reqs {
		r.Release()
	}
	after := RequestPoolStats()
	if after.Gets-before.Gets != n {
		t.Fatalf("gets delta %d, want %d", after.Gets-before.Gets, n)
	}
	if after.Releases-before.Releases != n {
		t.Fatalf("releases delta %d, want %d", after.Releases-before.Releases, n)
	}
	if after.Gets != after.Hits+after.Misses {
		t.Fatalf("gets %d != hits %d + misses %d", after.Gets, after.Hits, after.Misses)
	}
}

type errTestSentinelT struct{}

func (errTestSentinelT) Error() string { return "sentinel" }

var errTestSentinel = errTestSentinelT{}
