package telemetry

import "sync"

// ring is a mutex-guarded bounded buffer of the most recent values: a push
// into a full ring evicts the oldest. The tracer's sampled, error and tail
// rings and the flight recorder are each one of these.
type ring[T any] struct {
	mu     sync.Mutex
	buf    []T
	next   int
	pushed int64
}

func newRing[T any](capacity int) *ring[T] { return &ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) push(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.pushed++
	r.mu.Unlock()
}

// recent returns the retained values, oldest first.
func (r *ring[T]) recent() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pushed < int64(len(r.buf)) {
		out := make([]T, r.next)
		copy(out, r.buf)
		return out
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// total returns the number of values ever pushed, evicted ones included.
func (r *ring[T]) total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pushed
}
