//go:build !race

package core

import (
	"runtime"
	"testing"

	"labstor/internal/arena"
)

// Allocation contracts of the request lifecycle. Not built under the race
// detector, which makes sync.Pool drop a share of its Puts.

func TestRequestAllocContracts(t *testing.T) {
	var sink *Request
	// Two collections empty the request pool (its primary and victim
	// caches), so every unreleased NewRequest below is a pool miss.
	runtime.GC()
	runtime.GC()
	if n := testing.AllocsPerRun(200, func() { sink = NewRequest(OpNop) }); n != 1 {
		t.Errorf("an unreleased NewRequest allocates %v objects, want 1 (the struct; no completion channel)", n)
	}
	_ = sink
	NewRequest(OpNop).Release() // prime the pool
	parent := NewRequest(OpRead)
	if n := testing.AllocsPerRun(200, func() {
		c := parent.Child(OpBlockRead)
		parent.absorb(c)
		c.Release()
	}); n != 0 {
		t.Errorf("Request.Child+absorb+Release allocates %v objects in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		r := NewRequest(OpMessage)
		r.MarkDone()
		r.Release()
	}); n != 0 {
		t.Errorf("NewRequest+MarkDone+Release allocates %v objects in steady state, want 0", n)
	}
}

// TestArenaRoundTripAllocs: acquiring and releasing a handle of any size
// class allocates nothing once the class's pool holds a header — the pool
// keeps the header with its bytes, and a pointer needs no boxing.
func TestArenaRoundTripAllocs(t *testing.T) {
	for bits := arena.MinClassBits; bits <= arena.MaxClassBits; bits++ {
		size := 1 << bits
		AcquireHandle(size).Release() // prime the class
		if n := testing.AllocsPerRun(100, func() { AcquireHandle(size).Release() }); n != 0 {
			t.Errorf("AcquireHandle(%d)+Release allocates %v objects, want 0", size, n)
		}
	}
}
