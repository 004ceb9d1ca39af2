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
	_ = sink
	AcquireRequest(OpNop).Release() // prime the pool
	parent := NewRequest(OpRead)
	if n := testing.AllocsPerRun(200, func() {
		c := parent.Child(OpBlockRead)
		parent.Absorb(c)
		c.Release()
	}); n != 0 {
		t.Errorf("Request.Child+Absorb+Release allocates %v objects in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		r := AcquireRequest(OpMessage)
		r.MarkDone()
		r.Release()
	}); n != 0 {
		t.Errorf("AcquireRequest+MarkDone+Release allocates %v objects in steady state, want 0", n)
	}
}

// TestArenaRoundTripAllocs: recycling a buffer of any size class through
// the arena allocates nothing once the class's pool holds a buffer — the
// pool keeps the backing array, not a boxed slice header.
func TestArenaRoundTripAllocs(t *testing.T) {
	for c := 0; c < arenaClasses; c++ {
		size := 1 << (arenaMinBits + c)
		ReleaseBuf(AcquireBuf(size)) // prime the class
		if n := testing.AllocsPerRun(100, func() { ReleaseBuf(AcquireBuf(size)) }); n != 0 {
			t.Errorf("AcquireBuf(%d)+ReleaseBuf allocates %v objects, want 0", size, n)
		}
	}
}
