// Package ipc implements LabStor's inter-process communication substrate:
// bounded lock-free rings, submission/completion queue pairs, and a
// shared-segment manager that stands in for the paper's ShMemMod
// (vmalloc + remap_pfn_range shared memory with per-process grants).
//
// In the paper, clients and the Runtime live in separate address spaces and
// exchange cacheline-sized requests over shared-memory queues. Here the
// "address spaces" are goroutines inside one process; the queue protocol
// (polling, ordered/unordered, primary/intermediate) is reproduced
// faithfully, and the cross-core cacheline-transfer cost is charged in
// virtual time by the runtime. Live upgrades do not pause queues: the
// runtime gates only the stacks an upgrade changes (internal/runtime).
package ipc

import (
	"runtime"
	"sync/atomic"
)

// spinYield backs off a slot-state spin wait. The wait is bounded: the peer
// has already advanced the shared cursor past the slot, so it completes the
// fill/release in a handful of instructions unless descheduled — in which
// case yielding the processor is exactly what lets it finish.
func spinYield() { runtime.Gosched() }

type slot[T any] struct {
	seq atomic.Uint64
	val T
	// pad keeps hot slots from sharing cache lines in the common
	// pointer-payload case.
	_ [40]byte
}

// Ring is a bounded multi-producer/multi-consumer lock-free FIFO queue
// (Vyukov's bounded MPMC algorithm). The capacity is rounded up to a power
// of two. The zero value is not usable; construct with NewRing.
type Ring[T any] struct {
	mask    uint64
	slots   []slot[T]
	_       [48]byte
	enqueue atomic.Uint64
	_       [56]byte
	dequeue atomic.Uint64
	_       [56]byte
	// rejects counts EnqueueBatch calls that found the ring full (telemetry:
	// backpressure events; producers spin-retry on this).
	rejects atomic.Int64
}

// NewRing returns a ring with capacity at least n (rounded up to a power of
// two, minimum 2).
func NewRing[T any](n int) *Ring[T] {
	capacity := 2
	for capacity < n {
		capacity <<= 1
	}
	r := &Ring[T]{
		mask:  uint64(capacity - 1),
		slots: make([]slot[T], capacity),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// RingStats is a ring's cumulative traffic accounting. Enqueued and
// Dequeued are the ring cursors, so they cost nothing to maintain.
type RingStats struct {
	Enqueued int64 `json:"enqueued"`
	Dequeued int64 `json:"dequeued"`
	Rejects  int64 `json:"rejects"`
	Depth    int   `json:"depth"`
}

// Stats returns the ring's cumulative counters and current depth.
func (r *Ring[T]) Stats() RingStats {
	return RingStats{
		Enqueued: int64(r.enqueue.Load()),
		Dequeued: int64(r.dequeue.Load()),
		Rejects:  r.rejects.Load(),
		Depth:    r.Len(),
	}
}

// Len returns the approximate number of queued items.
func (r *Ring[T]) Len() int {
	e := r.enqueue.Load()
	d := r.dequeue.Load()
	if e < d {
		return 0
	}
	n := int(e - d)
	if n > len(r.slots) {
		n = len(r.slots)
	}
	return n
}

// EnqueueBatch adds as many of vals as fit, in order, and returns how many
// were enqueued (0 when the ring is full). The whole run of slots is
// reserved with a single CAS on the enqueue cursor, so the per-item cost of
// a batch is one store plus one release instead of a CAS pair — the
// vectored-submission analogue of io_uring's batched SQE publication.
//
// FIFO order within the batch is preserved: a consumer observes the items
// in the order they appear in vals.
func (r *Ring[T]) EnqueueBatch(vals []T) int {
	if len(vals) == 0 {
		return 0
	}
	var pos, n uint64
	for {
		pos = r.enqueue.Load()
		// Clamp to the free space implied by the dequeue cursor. The cursor
		// only moves forward, so a stale read under-counts free slots —
		// never over-commits.
		d := r.dequeue.Load()
		if pos < d {
			// pos is stale (read before d advanced past it); reload.
			continue
		}
		free := uint64(len(r.slots)) - (pos - d)
		if free == 0 {
			r.rejects.Add(1)
			return 0
		}
		n = uint64(len(vals))
		if n > free {
			n = free
		}
		if r.enqueue.CompareAndSwap(pos, pos+n) {
			break
		}
	}
	for i := uint64(0); i < n; i++ {
		p := pos + i
		s := &r.slots[p&r.mask]
		// A reserved slot is free (seq == p) or mid-release by a consumer
		// that already advanced the dequeue cursor past it; spin briefly.
		for s.seq.Load() != p {
			spinYield()
		}
		s.val = vals[i]
		s.seq.Store(p + 1)
	}
	return int(n)
}

// DequeueBatch removes up to len(dst) of the oldest items into dst, in FIFO
// order, and returns how many were dequeued (0 when the ring is empty). The
// run of slots is reserved with one CAS on the dequeue cursor — the batched
// completion-reaping analogue of SPDK's polled batch completions.
func (r *Ring[T]) DequeueBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	var zero T
	var pos, n uint64
	for {
		pos = r.dequeue.Load()
		// Clamp to the published items implied by the enqueue cursor; a
		// stale read under-counts, never over-commits.
		e := r.enqueue.Load()
		if e <= pos {
			return 0
		}
		n = uint64(len(dst))
		if avail := e - pos; n > avail {
			n = avail
		}
		if r.dequeue.CompareAndSwap(pos, pos+n) {
			break
		}
	}
	for i := uint64(0); i < n; i++ {
		p := pos + i
		s := &r.slots[p&r.mask]
		// A reserved slot is published (seq == p+1) or mid-fill by a
		// producer that already advanced the enqueue cursor past it.
		for s.seq.Load() != p+1 {
			spinYield()
		}
		dst[i] = s.val
		s.val = zero
		s.seq.Store(p + r.mask + 1)
	}
	return int(n)
}
