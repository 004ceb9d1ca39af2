package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"labstor/internal/ipc"
)

// Zero-copy buffer handles (paper Fig. 6 top rung / io_uring registered
// buffers): instead of memcpy'ing payloads at every stack hop, a payload
// lives in one registered arena buffer for its whole lifetime and the
// request carries a BufHandle — a refcounted {buffer, off, len} view.
// Mods pass narrowed views downstream (Slice), the cache retains pages by
// bumping the refcount (Retain), and the buffer returns to its arena only
// when the last holder calls Release.
//
// Two backing sources share one header type:
//   - SegArena buffers carved from registered ipc.Segments — the client
//     data path.
//   - anonymous buffers from the size-class arena (bufarena.go) — results
//     allocated inside the stack (Request.CompleteValue).
//
// Ownership rules are documented in DESIGN.md §13: write payloads are
// borrowed (a mod that needs the bytes past the request must copy), read
// results are stack-owned until completion and then transfer to the
// client, and only stack-owned buffers may be retained by caches.

// bufHeader is the shared, refcounted state behind every view of one
// buffer. gen is bumped each time the buffer is recycled so debug builds
// can detect stale handles (use-after-release).
type bufHeader struct {
	refs  atomic.Int32
	gen   atomic.Uint32
	data  []byte // full-capacity backing slice
	seg   *ipc.Segment
	arena *SegArena // owner freelist; nil = anonymous (bufarena-backed)
	class int16     // freelist class index within the arena
}

// BufHandle is a borrowed or owned view [off, off+ln) of a refcounted
// buffer. The zero BufHandle is invalid. Handles are values: Slice and
// Retain return new handles; Release drops the underlying reference.
type BufHandle struct {
	h   *bufHeader
	gen uint32
	off int
	ln  int
	own bool
}

// Valid reports whether the handle references a buffer.
func (b BufHandle) Valid() bool { return b.h != nil }

// Len returns the view length.
func (b BufHandle) Len() int { return b.ln }

// Owned reports whether the view is stack-owned: allocated by the stack
// (CompleteValue / SegArena results) rather than borrowed from a client's
// registered buffer. Caches may retain only owned views; borrowed client
// memory can be rewritten by its owner at any time after completion.
func (b BufHandle) Owned() bool { return b.own }

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
	return BufHandle{h: b.h, gen: b.gen, off: b.off + lo, ln: hi - lo, own: b.own}
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

// Release drops one reference; the last release recycles the buffer into
// its arena. Releasing the zero handle is a no-op. A double release is
// counted (and panics in debug mode, see debug.go) — the refcount going
// negative means some holder still believes it owns recycled memory.
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
	recycleHeader(b.h)
}

func recycleHeader(h *bufHeader) {
	h.gen.Add(1)
	if debugChecks.Load() {
		poison(h.data)
	}
	if h.arena != nil {
		h.arena.recycle(h)
		return
	}
	ReleaseBuf(h.data)
	h.data = nil
	h.seg = nil
	headerPool.Put(h)
}

// check panics in debug mode when the handle outlived its buffer (the
// generation moved on after the last release recycled it).
func (b BufHandle) check(op string) {
	if debugChecks.Load() && b.h.gen.Load() != b.gen {
		panic(fmt.Sprintf("core: BufHandle.%s on released buffer (gen %d, now %d)", op, b.gen, b.h.gen.Load()))
	}
}

var headerPool = sync.Pool{New: func() any { return &bufHeader{} }}

var (
	handleAcquires       atomic.Int64
	handleDoubleReleases atomic.Int64
)

// HandleDoubleReleases returns how many BufHandle double-releases have
// been absorbed (non-debug builds count instead of panicking).
func HandleDoubleReleases() int64 { return handleDoubleReleases.Load() }

// AcquireHandle returns a stack-owned handle of length n backed by an
// anonymous arena buffer. Contents are unspecified. The caller owns the
// single reference.
func AcquireHandle(n int) BufHandle {
	handleAcquires.Add(1)
	h := headerPool.Get().(*bufHeader)
	h.data = AcquireBuf(n)
	h.seg = nil
	h.arena = nil
	h.refs.Store(1)
	return BufHandle{h: h, gen: h.gen.Load(), off: 0, ln: n, own: true}
}

// SegArena carves fixed-size slots out of registered ipc.Segments and
// hands them to clients as BufHandles — the io_uring registered-buffer
// analogue. Slots are pow2 size classes; each class keeps its own segment
// list and freelist.
type SegArena struct {
	sm   *ipc.SegmentManager
	name string
	cred ipc.Credentials

	mu    sync.Mutex
	free  map[int][]*bufHeader // class -> freelist
	segs  int                  // segments allocated (naming)
	slots int                  // live slots handed out at least once
}

// NewSegArena returns an arena carving from sm. Segments are allocated
// under "<name>/…" and granted to cred.
func NewSegArena(sm *ipc.SegmentManager, name string, cred ipc.Credentials) *SegArena {
	if name == "" {
		name = "bufarena"
	}
	return &SegArena{sm: sm, name: name, cred: cred, free: make(map[int][]*bufHeader)}
}

// segArenaSlab is how much segment memory one allocation registers; small
// classes share a slab, classes above it get one slot per segment.
const segArenaSlab = 256 << 10

// Acquire returns a stack-visible, client-owned handle of length n. The
// buffer lives inside a registered segment; the handle is NOT stack-owned
// (Owned() == false) — it is the client's registered memory, so caches
// must copy rather than retain it.
func (a *SegArena) Acquire(n int) (BufHandle, error) {
	if n <= 0 {
		return BufHandle{}, fmt.Errorf("core: SegArena.Acquire(%d)", n)
	}
	cls := arenaClass(n)
	if cls < 0 {
		return BufHandle{}, fmt.Errorf("core: SegArena.Acquire(%d) exceeds max class %d", n, 1<<arenaMaxBits)
	}
	slot := 1 << (arenaMinBits + cls)

	a.mu.Lock()
	list := a.free[cls]
	if len(list) == 0 {
		// Register a fresh segment for this class and carve it.
		per := segArenaSlab / slot
		if per < 1 {
			per = 1
		}
		a.segs++
		segName := fmt.Sprintf("%s/c%d/%d", a.name, cls, a.segs)
		seg := a.sm.Allocate(segName, per*slot, a.cred)
		for i := 0; i < per; i++ {
			view, err := seg.View(i*slot, slot)
			if err != nil {
				a.mu.Unlock()
				return BufHandle{}, err
			}
			list = append(list, &bufHeader{data: view, seg: seg, arena: a, class: int16(cls)})
		}
		a.slots += per
	}
	h := list[len(list)-1]
	a.free[cls] = list[:len(list)-1]
	a.mu.Unlock()

	handleAcquires.Add(1)
	h.refs.Store(1)
	return BufHandle{h: h, gen: h.gen.Load(), off: 0, ln: n, own: false}, nil
}

// Outstanding returns how many of the arena's slots are acquired and not
// yet released. Leak checks compare it against zero once every holder is
// gone.
func (a *SegArena) Outstanding() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.slots
	for _, list := range a.free {
		n -= len(list)
	}
	return n
}

func (a *SegArena) recycle(h *bufHeader) {
	a.mu.Lock()
	a.free[int(h.class)] = append(a.free[int(h.class)], h)
	a.mu.Unlock()
}

// Handle plumbing on Request ------------------------------------------------

// SetPayload attaches a client-acquired registered buffer as the request's
// payload: Data becomes a view of the handle. The request borrows the
// handle — completion does not release it; the client does.
func (r *Request) SetPayload(b BufHandle) {
	r.Buf = b
	r.Data = b.Bytes()
}

// completeHandle allocates the request's result as a stack-owned handle and
// points Value (and the returned slice) at it. Used by CompleteValue.
func (r *Request) completeHandle(n int) []byte {
	if r.ValueH.Valid() {
		r.ValueH.Release()
	}
	r.ValueH = AcquireHandle(n)
	// Expose the class-capacity backing (cap > n) like the pre-handle
	// arena contract did; in-place consumers rely on the slack.
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
		// Detach Value too: it aliases the taken buffer, and leaving it
		// set would let Release recycle memory the caller now owns.
		r.Value = nil
	}
	return h
}
