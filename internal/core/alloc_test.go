//go:build !race

package core

import "testing"

// Allocation contracts of the request lifecycle. Not built under the race
// detector, which makes sync.Pool drop a share of its Puts.

func TestRequestAllocContracts(t *testing.T) {
	var sink *Request
	if n := testing.AllocsPerRun(200, func() { sink = NewRequest(OpNop) }); n != 1 {
		t.Errorf("NewRequest allocates %v objects, want 1 (the struct; no completion channel)", n)
	}
	parent := NewRequest(OpRead)
	if n := testing.AllocsPerRun(200, func() { sink = parent.Child(OpBlockRead) }); n != 1 {
		t.Errorf("Request.Child allocates %v objects, want 1", n)
	}
	_ = sink
	AcquireRequest(OpNop).Release() // prime the pool
	if n := testing.AllocsPerRun(200, func() {
		r := AcquireRequest(OpMessage)
		r.MarkDone()
		r.Release()
	}); n != 0 {
		t.Errorf("AcquireRequest+MarkDone+Release allocates %v objects in steady state, want 0", n)
	}
}
