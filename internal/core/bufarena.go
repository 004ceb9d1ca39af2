package core

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Payload buffer arena: the data path allocates transient byte buffers on
// every cache miss, log-block flush and read completion — at millions of
// ops/s that is the dominant GC pressure after request pooling (pool.go).
// AcquireBuf/ReleaseBuf recycle those buffers through per-size-class
// sync.Pools, mirroring the paper's preallocated shared-memory data slabs.
//
// Classes are powers of two from 1<<arenaMinBits to 1<<arenaMaxBits; a
// request for n bytes returns a slice of length n whose capacity is the
// class size. Requests above the largest class fall through to the heap
// (counted as misses). Buffers come back with whatever bytes the previous
// user left in them — callers that depend on zeroing must clear the buffer
// themselves.
//
// A pool holds each backing array as an unsafe.Pointer to its first byte,
// not as a slice: a pointer fits in the pool's interface word, so Put boxes
// nothing, and AcquireBuf rebuilds the slice at the class size. The pointer
// keeps the whole array alive while it sits in the pool.
const (
	arenaMinBits = 9  // 512 B — smallest class
	arenaMaxBits = 21 // 2 MiB — largest class
	arenaClasses = arenaMaxBits - arenaMinBits + 1
)

var arenaPools [arenaClasses]sync.Pool

var (
	arenaGets     atomic.Int64 // AcquireBuf calls
	arenaMisses   atomic.Int64 // Acquires that had to allocate
	arenaReleases atomic.Int64 // buffers accepted back by ReleaseBuf
	arenaBytes    atomic.Int64 // cumulative bytes handed out by AcquireBuf
)

func init() {
	for i := range arenaPools {
		size := 1 << (arenaMinBits + i)
		arenaPools[i].New = func() any {
			arenaMisses.Add(1)
			return unsafe.Pointer(unsafe.SliceData(make([]byte, size)))
		}
	}
}

// arenaClass returns the size-class index for n, or -1 if n exceeds the
// largest class.
func arenaClass(n int) int {
	c := 0
	for size := 1 << arenaMinBits; size < n; size <<= 1 {
		c++
	}
	if c >= arenaClasses {
		return -1
	}
	return c
}

// AcquireBuf returns a buffer of length n drawn from the arena when n fits a
// size class, falling back to the heap otherwise. The contents are
// unspecified (recycled buffers are not zeroed).
func AcquireBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	arenaGets.Add(1)
	arenaBytes.Add(int64(n))
	c := arenaClass(n)
	if c < 0 {
		arenaMisses.Add(1)
		return make([]byte, n)
	}
	b := unsafe.Slice((*byte)(arenaPools[c].Get().(unsafe.Pointer)), 1<<(arenaMinBits+c))
	if debugChecks.Load() {
		debugNoteAcquire(b)
	}
	return b[:n]
}

// ReleaseBuf returns a buffer to the arena. Only buffers whose capacity is
// exactly a class size are accepted (i.e. buffers that came from AcquireBuf
// or happen to match a class); anything else — including nil and oversized
// heap fallbacks — is silently left to the GC, so it is always safe to call.
// The caller must not touch b afterwards.
//
// With debug checks on (LABSTOR_DEBUG=1, the labstor_debug tag, or
// SetDebugChecks), the buffer is poisoned and a second release of the
// same backing array panics instead of being absorbed by the pool.
func ReleaseBuf(b []byte) {
	c := cap(b)
	if c < 1<<arenaMinBits || c > 1<<arenaMaxBits || c&(c-1) != 0 {
		return
	}
	cls := arenaClass(c)
	b = b[:c]
	if debugChecks.Load() {
		if !debugNoteRelease(b) {
			panic("core: ReleaseBuf double release")
		}
		poison(b)
	}
	arenaReleases.Add(1)
	arenaPools[cls].Put(unsafe.Pointer(unsafe.SliceData(b)))
}

// ArenaStats is the buffer arena's cumulative accounting. Hits is Gets that
// were served by a recycled (or pool-cached) buffer.
type ArenaStats struct {
	Gets     int64 `json:"gets"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Releases int64 `json:"releases"`
	Bytes    int64 `json:"bytes"`
}

// BufArenaStats snapshots the arena counters (telemetry).
func BufArenaStats() ArenaStats {
	gets := arenaGets.Load()
	misses := arenaMisses.Load()
	return ArenaStats{
		Gets:     gets,
		Hits:     gets - misses,
		Misses:   misses,
		Releases: arenaReleases.Load(),
		Bytes:    arenaBytes.Load(),
	}
}

// CompleteValue allocates the request's result buffer (r.Value) from the
// arena and returns it. Drivers and stores use it for read completions whose
// payload the caller did not supply a buffer for. The buffer is a
// stack-owned BufHandle (r.ValueH): Release drops the request's
// reference, and clients that want to keep the result zero-copy call
// TakeValue first (handle.go).
func (r *Request) CompleteValue(n int) []byte {
	return r.completeHandle(n)
}
