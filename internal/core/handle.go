package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Zero-copy buffer handles (paper Fig. 6 top rung / io_uring registered
// buffers): instead of memcpy'ing payloads at every stack hop, a payload
// lives in one arena buffer for its whole lifetime and the request carries
// a BufHandle — a refcounted {buffer, off, len} view. Mods pass narrowed
// views downstream (Slice), the cache retains pages by bumping the
// refcount (Retain), and the buffer returns to the arena only when the
// last holder calls Release.
//
// AcquireHandle is the one source of arena memory, whether the buffer
// holds a payload the serve plane landed (SetPayload), a result allocated
// inside the stack (Request.CompleteValue) or a mod's scratch block. The
// ownership rule (DESIGN.md §13) is one line: a Buf handle may be
// retained; a bare Data slice is borrowed and copied.
//
// The arena mirrors the paper's preallocated shared-memory data slabs: one
// sync.Pool per power-of-two size class, from 1<<arenaMinBits to
// 1<<arenaMaxBits, pooling headers that keep their class-sized bytes
// while they wait. An acquire is one Get and a last Release one Put, and
// neither allocates once the class is warm. A request above the largest
// class gets a fresh header over a heap buffer (counted as a miss) that is
// never pooled. Buffers come back with whatever bytes the previous user
// left in them — callers that depend on zeroing clear the buffer
// themselves.
const (
	arenaMinBits = 9  // 512 B — smallest class
	arenaMaxBits = 21 // 2 MiB — largest class
	arenaClasses = arenaMaxBits - arenaMinBits + 1
)

var arenaPools [arenaClasses]sync.Pool

var (
	arenaGets     atomic.Int64 // AcquireHandle calls
	arenaMisses   atomic.Int64 // acquires that had to allocate
	arenaReleases atomic.Int64 // headers put back into a class pool
	arenaBytes    atomic.Int64 // cumulative bytes handed out
)

func init() {
	for i := range arenaPools {
		size := 1 << (arenaMinBits + i)
		arenaPools[i].New = func() any {
			arenaMisses.Add(1)
			return &bufHeader{data: make([]byte, size)}
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

// bufHeader is the shared, refcounted state behind every view of one
// buffer. gen is bumped each time the buffer is recycled so debug builds
// can detect stale handles (use-after-release).
type bufHeader struct {
	refs atomic.Int32
	gen  atomic.Uint32
	data []byte // full-capacity backing slice, kept while pooled
}

// BufHandle is a view [off, off+ln) of a refcounted buffer. The zero
// BufHandle is invalid. Handles are values: Slice and Retain return new
// handles; Release drops the underlying reference.
type BufHandle struct {
	h   *bufHeader
	gen uint32
	off int
	ln  int
}

// AcquireHandle returns a stack-owned handle of length n backed by an
// arena buffer. Contents are unspecified. The caller owns the single
// reference.
func AcquireHandle(n int) BufHandle {
	arenaGets.Add(1)
	arenaBytes.Add(int64(n))
	var h *bufHeader
	if c := arenaClass(n); c >= 0 {
		h = arenaPools[c].Get().(*bufHeader)
	} else {
		arenaMisses.Add(1)
		h = &bufHeader{data: make([]byte, n)}
	}
	h.refs.Store(1)
	return BufHandle{h: h, gen: h.gen.Load(), ln: n}
}

// Valid reports whether the handle references a buffer.
func (b BufHandle) Valid() bool { return b.h != nil }

// Len returns the view length.
func (b BufHandle) Len() int { return b.ln }

// Bytes returns the view's bytes. The slice aliases the shared buffer —
// holders must respect the ownership rules (DESIGN.md §13).
func (b BufHandle) Bytes() []byte {
	if b.h == nil {
		return nil
	}
	b.check("Bytes")
	return b.h.data[b.off : b.off+b.ln : b.off+b.ln]
}

// Slice narrows the view to [lo, hi) relative to the handle. The result
// borrows the same reference — it must not be Released separately, and it
// dies with the handle it was cut from.
func (b BufHandle) Slice(lo, hi int) BufHandle {
	if b.h == nil || lo < 0 || hi < lo || hi > b.ln {
		panic(fmt.Sprintf("core: BufHandle.Slice [%d,%d) out of range 0..%d", lo, hi, b.ln))
	}
	b.check("Slice")
	return BufHandle{h: b.h, gen: b.gen, off: b.off + lo, ln: hi - lo}
}

// Narrow is Slice for an owning handle: the result carries b's reference
// to the view [lo, hi), so b must be neither used nor released after it.
// A mod that adopts a child's result handle narrows it this way.
func (b BufHandle) Narrow(lo, hi int) BufHandle { return b.Slice(lo, hi) }

// Sole reports whether b holds the only reference to its buffer: no cache
// page or other request shares the bytes, so the holder may keep them and
// write them. Only an owning handle can ask; a borrowed Slice cannot tell.
func (b BufHandle) Sole() bool {
	if b.h == nil {
		return false
	}
	b.check("Sole")
	return b.h.refs.Load() == 1
}

// Retain bumps the buffer's refcount and returns an owning handle for the
// same view. The caller must balance it with Release.
func (b BufHandle) Retain() BufHandle {
	if b.h == nil {
		return b
	}
	b.check("Retain")
	b.h.refs.Add(1)
	return b
}

// Release drops one reference; the last release puts the header, bytes
// and all, back into its class pool. Releasing the zero handle is a no-op.
// A double release is counted (and panics in debug mode, see debug.go) —
// the refcount going negative means some holder still believes it owns
// recycled memory.
func (b BufHandle) Release() {
	if b.h == nil {
		return
	}
	b.check("Release")
	n := b.h.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		b.h.refs.Add(1) // restore; the buffer was already recycled
		handleDoubleReleases.Add(1)
		if debugChecks.Load() {
			panic(fmt.Sprintf("core: BufHandle double release (len %d)", len(b.h.data)))
		}
		return
	}
	h := b.h
	h.gen.Add(1)
	if debugChecks.Load() {
		poison(h.data)
	}
	if c := len(h.data); c <= 1<<arenaMaxBits {
		arenaReleases.Add(1)
		arenaPools[arenaClass(c)].Put(h)
	}
}

// check panics in debug mode when the handle outlived its buffer (the
// generation moved on after the last release recycled it).
func (b BufHandle) check(op string) {
	if debugChecks.Load() && b.h.gen.Load() != b.gen {
		panic(fmt.Sprintf("core: BufHandle.%s on released buffer (gen %d, now %d)", op, b.gen, b.h.gen.Load()))
	}
}

var handleDoubleReleases atomic.Int64

// HandleDoubleReleases returns how many BufHandle double-releases have
// been absorbed (non-debug builds count instead of panicking).
func HandleDoubleReleases() int64 { return handleDoubleReleases.Load() }

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

// Handle plumbing on Request ------------------------------------------------

// SetPayload attaches a payload handle to the request: Data becomes a view
// of the handle. The request borrows the handle — completion does not
// release it; the holder does. SetPayload freezes the buffer: a cache may
// retain it as a page, so from here on the holder may Release the handle
// but never write its bytes again.
func (r *Request) SetPayload(b BufHandle) {
	r.Buf = b
	r.Data = b.Bytes()
}

// CompleteValue allocates the request's result as a stack-owned handle
// (r.ValueH) and points r.Value, which it returns, at its bytes. Drivers
// and stores use it for read completions whose payload the caller did not
// supply a buffer for. Release drops the request's reference, and clients
// that want to keep the result zero-copy call TakeValue first.
func (r *Request) CompleteValue(n int) []byte {
	r.ValueH.Release()
	r.ValueH = AcquireHandle(n)
	// Expose the class-capacity backing (cap > n): in-place consumers
	// such as LabKVS's tail-block read rely on the slack.
	r.Value = r.ValueH.h.data[:n]
	return r.Value
}

// TakeValue transfers ownership of the request's result buffer to the
// caller: the request forgets the handle, so Release on the request will
// not recycle it. Clients use this to keep a zero-copy result alive past
// request recycling; they must Release the returned handle themselves.
func (r *Request) TakeValue() BufHandle {
	h := r.ValueH
	r.ValueH = BufHandle{}
	if h.Valid() {
		// Value aliases the taken buffer, which is the caller's now.
		r.Value = nil
	}
	return h
}
