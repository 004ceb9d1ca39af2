// Package arena is the payload buffer arena: refcounted, size-classed
// buffers that every layer of the block path shares by reference, from the
// serve plane's payload landing through the page cache to the device
// store. It is a leaf package so that both internal/core (which imports
// internal/device) and internal/device can hold its handles; core
// re-exports it as core.BufHandle and core.AcquireHandle.
//
// Zero-copy buffer handles (paper Fig. 6 top rung / io_uring registered
// buffers): instead of memcpy'ing payloads at every stack hop, a payload
// lives in one arena buffer for its whole lifetime and the request carries
// a Handle — a refcounted {buffer, off, len} view. Mods pass narrowed
// views downstream (Slice), the cache and the device store retain blocks
// by bumping the refcount (Retain), and the buffer returns to the arena
// only when the last holder calls Release.
//
// Acquire is the one source of arena memory, whether the buffer holds a
// payload the serve plane landed, a result allocated inside the stack or a
// mod's scratch block. The ownership rule (DESIGN.md §13) is one line: a
// Buf handle may be retained; a bare Data slice is borrowed and copied.
//
// The arena mirrors the paper's preallocated shared-memory data slabs: one
// sync.Pool per power-of-two size class, from 1<<MinClassBits to
// 1<<MaxClassBits, pooling headers that keep their class-sized bytes
// while they wait. An acquire is one Get and a last Release one Put, and
// neither allocates once the class is warm. A request above the largest
// class gets a fresh header over a heap buffer (counted as a miss) that is
// never pooled. Buffers come back with whatever bytes the previous user
// left in them — callers that depend on zeroing clear the buffer
// themselves.
package arena

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The size classes.
const (
	MinClassBits = 9  // 512 B — smallest class
	MaxClassBits = 21 // 2 MiB — largest class
	classes      = MaxClassBits - MinClassBits + 1
)

var pools [classes]sync.Pool

var (
	gets     atomic.Int64 // Acquire calls
	misses   atomic.Int64 // acquires that had to allocate
	releases atomic.Int64 // headers put back into a class pool
	bytesOut atomic.Int64 // cumulative bytes handed out
)

func init() {
	for i := range pools {
		size := 1 << (MinClassBits + i)
		pools[i].New = func() any {
			misses.Add(1)
			return &header{data: make([]byte, size)}
		}
	}
}

// class returns the size-class index for n, or -1 if n exceeds the
// largest class.
func class(n int) int {
	c := 0
	for size := 1 << MinClassBits; size < n; size <<= 1 {
		c++
	}
	if c >= classes {
		return -1
	}
	return c
}

// header is the shared, refcounted state behind every view of one buffer.
// gen is bumped each time the buffer is recycled so debug builds can
// detect stale handles (use-after-release).
type header struct {
	refs     atomic.Int32
	gen      atomic.Uint32
	unpooled bool   // oversized or New's: the GC takes it after the last release
	data     []byte // full-capacity backing slice, kept while pooled
}

// Handle is a view [off, off+ln) of a refcounted buffer. The zero Handle
// is invalid. Handles are values: Slice and Retain return new handles;
// Release drops the underlying reference.
type Handle struct {
	h   *header
	gen uint32
	off int
	ln  int
}

// Acquire returns a handle of length n backed by an arena buffer.
// Contents are unspecified. The caller owns the single reference.
func Acquire(n int) Handle {
	gets.Add(1)
	bytesOut.Add(int64(n))
	var h *header
	if c := class(n); c >= 0 {
		h = pools[c].Get().(*header)
	} else {
		misses.Add(1)
		h = &header{unpooled: true, data: make([]byte, n)}
	}
	h.refs.Store(1)
	return Handle{h: h, gen: h.gen.Load(), ln: n}
}

// New returns a handle over a fresh heap buffer of n zeroed bytes, outside
// the arena's pools and counters: the last Release leaves it to the GC.
// The device store keeps the blocks it writes itself this way, as media
// rather than as host I/O buffers, so they neither drain the pools nor
// count as buffers a layer still holds.
func New(n int) Handle {
	h := &header{unpooled: true, data: make([]byte, n)}
	h.refs.Store(1)
	return Handle{h: h, ln: n}
}

// Valid reports whether the handle references a buffer.
func (b Handle) Valid() bool { return b.h != nil }

// Len returns the view length.
func (b Handle) Len() int { return b.ln }

// Bytes returns the view's bytes. The slice aliases the shared buffer —
// holders must respect the ownership rules (DESIGN.md §13).
func (b Handle) Bytes() []byte {
	if b.h == nil {
		return nil
	}
	b.check("Bytes")
	return b.h.data[b.off : b.off+b.ln : b.off+b.ln]
}

// Backing is Bytes with the rest of the buffer as capacity: a holder that
// acquired the handle may write past the view's end, up to the size
// class, before anyone shares it.
func (b Handle) Backing() []byte {
	if b.h == nil {
		return nil
	}
	b.check("Backing")
	return b.h.data[b.off : b.off+b.ln]
}

// Slice narrows the view to [lo, hi) relative to the handle. The result
// borrows the same reference — it must not be Released separately, and it
// dies with the handle it was cut from.
func (b Handle) Slice(lo, hi int) Handle {
	if b.h == nil || lo < 0 || hi < lo || hi > b.ln {
		panic(fmt.Sprintf("arena: Handle.Slice [%d,%d) out of range 0..%d", lo, hi, b.ln))
	}
	b.check("Slice")
	return Handle{h: b.h, gen: b.gen, off: b.off + lo, ln: hi - lo}
}

// Narrow is Slice for an owning handle: the result carries b's reference
// to the view [lo, hi), so b must be neither used nor released after it.
// A mod that adopts a child's result handle narrows it this way.
func (b Handle) Narrow(lo, hi int) Handle { return b.Slice(lo, hi) }

// Sole reports whether b holds the only reference to its buffer: no cache
// page, device block or other request shares the bytes, so the holder may
// keep them and write them. Only an owning handle can ask; a borrowed
// Slice cannot tell.
func (b Handle) Sole() bool {
	if b.h == nil {
		return false
	}
	b.check("Sole")
	return b.h.refs.Load() == 1
}

// Retain bumps the buffer's refcount and returns an owning handle for the
// same view. The caller must balance it with Release.
func (b Handle) Retain() Handle {
	if b.h == nil {
		return b
	}
	b.check("Retain")
	b.h.refs.Add(1)
	return b
}

// Release drops one reference; the last release puts the header, bytes
// and all, back into its class pool. Releasing the zero handle is a no-op.
// A double release is counted (and panics in debug mode) — the refcount
// going negative means some holder still believes it owns recycled memory.
func (b Handle) Release() {
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
		doubleReleases.Add(1)
		if debugChecks.Load() {
			panic(fmt.Sprintf("arena: Handle double release (len %d)", len(b.h.data)))
		}
		return
	}
	h := b.h
	h.gen.Add(1)
	if debugChecks.Load() {
		poison(h.data)
	}
	if !h.unpooled {
		releases.Add(1)
		pools[class(len(h.data))].Put(h)
	}
}

// check panics in debug mode when the handle outlived its buffer (the
// generation moved on after the last release recycled it).
func (b Handle) check(op string) {
	if debugChecks.Load() && b.h.gen.Load() != b.gen {
		panic(fmt.Sprintf("arena: Handle.%s on released buffer (gen %d, now %d)", op, b.gen, b.h.gen.Load()))
	}
}

var doubleReleases atomic.Int64

// DoubleReleases returns how many Handle double-releases have been
// absorbed (non-debug builds count instead of panicking).
func DoubleReleases() int64 { return doubleReleases.Load() }

// Stats is the arena's cumulative accounting. Hits is Gets that were
// served by a recycled (or pool-cached) buffer.
type Stats struct {
	Gets     int64 `json:"gets"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Releases int64 `json:"releases"`
	Bytes    int64 `json:"bytes"`
}

// ReadStats snapshots the arena counters (telemetry).
func ReadStats() Stats {
	g := gets.Load()
	m := misses.Load()
	return Stats{
		Gets:     g,
		Hits:     g - m,
		Misses:   m,
		Releases: releases.Load(),
		Bytes:    bytesOut.Load(),
	}
}
