package core

import "testing"

// TestAcquireReleaseReset checks that a recycled request comes back clean: a
// fresh ID, a pending completion word, zeroed fields, and an empty (but reusable)
// stage slice.
func TestAcquireReleaseReset(t *testing.T) {
	r := NewRequest(OpWrite)
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

	r2 := NewRequest(OpRead)
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

// TestReleaseForgetsPayload checks that Release drops the payload slice as
// well as the handle behind it (without releasing it: the payload is
// borrowed), so a pooled request never pins the caller's memory. It reads
// the request after Release only to see what the pool holds.
func TestReleaseForgetsPayload(t *testing.T) {
	h := AcquireHandle(64)
	defer h.Release()
	r := NewRequest(OpBlockWrite)
	r.SetPayload(h)
	r.Release()
	if r.Data != nil || r.Buf.Valid() {
		t.Fatalf("released request still holds its payload: %d bytes, handle %v", len(r.Data), r.Buf.Valid())
	}
	if !h.Sole() {
		t.Fatal("Release dropped a reference to the borrowed payload")
	}
}

// TestPoolStatsAccounting checks the hit/miss arithmetic: gets = hits+misses
// and the counters move with traffic.
func TestPoolStatsAccounting(t *testing.T) {
	before := RequestPoolStats()
	const n = 32
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = NewRequest(OpMessage)
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
