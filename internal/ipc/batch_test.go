package ipc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// ringWidths are the batch widths every ring behaviour is checked at: a
// lone item, a width that divides neither the capacity nor the item counts,
// and the whole ring at once.
func ringWidths(capacity int) []int { return []int{1, 3, capacity} }

// put enqueues vals at most width at a time and stops at the first batch the
// ring does not take whole, returning how many items went in.
func put[T any](r *Ring[T], vals []T, width int) int {
	sent := 0
	for sent < len(vals) {
		batch := vals[sent:min(sent+width, len(vals))]
		n := r.EnqueueBatch(batch)
		sent += n
		if n < len(batch) {
			break
		}
	}
	return sent
}

// take dequeues at most width at a time until the ring reports empty or max
// items are out.
func take[T any](r *Ring[T], max, width int) []T {
	var out []T
	dst := make([]T, width)
	for len(out) < max {
		n := r.DequeueBatch(dst[:min(width, max-len(out))])
		if n == 0 {
			break
		}
		out = append(out, dst[:n]...)
	}
	return out
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

func TestRingFIFO(t *testing.T) {
	for _, w := range ringWidths(8) {
		r := NewRing[int](8)
		in := seq(10, 5)
		if n := put(r, in, w); n != len(in) {
			t.Fatalf("width %d: enqueued %d, want %d", w, n, len(in))
		}
		if r.Len() != len(in) {
			t.Fatalf("width %d: Len = %d", w, r.Len())
		}
		if got := take(r, len(in), w); !slices.Equal(got, in) {
			t.Fatalf("width %d: dequeued %v, want %v (FIFO violated)", w, got, in)
		}
		if n := r.DequeueBatch(make([]int, w)); n != 0 {
			t.Fatalf("width %d: DequeueBatch on a drained ring = %d, want 0", w, n)
		}
	}
}

// TestRingDequeueWidthIndependent: items enqueued at one width come out in
// order at every other.
func TestRingDequeueWidthIndependent(t *testing.T) {
	for _, in := range ringWidths(16) {
		for _, out := range ringWidths(16) {
			r := NewRing[int](16)
			vals := seq(0, 6)
			if n := put(r, vals, in); n != len(vals) {
				t.Fatalf("in %d: enqueued %d", in, n)
			}
			if got := take(r, len(vals), out); !slices.Equal(got, vals) {
				t.Fatalf("in %d out %d: %v", in, out, got)
			}
		}
	}
}

func TestRingFull(t *testing.T) {
	for _, w := range ringWidths(4) {
		r := NewRing[int](4)
		if n := put(r, seq(0, r.Cap()), w); n != r.Cap() {
			t.Fatalf("width %d: filled %d of %d", w, n, r.Cap())
		}
		// A full ring takes nothing and counts the reject.
		before := r.Stats().Rejects
		if n := r.EnqueueBatch(seq(99, w)); n != 0 {
			t.Fatalf("width %d: EnqueueBatch on a full ring = %d, want 0", w, n)
		}
		if got := r.Stats().Rejects; got != before+1 {
			t.Fatalf("width %d: rejects = %d, want %d", w, got, before+1)
		}
		// Draining one frees exactly one slot.
		if got := take(r, 1, w); !slices.Equal(got, []int{0}) {
			t.Fatalf("width %d: drained %v", w, got)
		}
		if n := r.EnqueueBatch(seq(99, w)); n != 1 {
			t.Fatalf("width %d: EnqueueBatch into one free slot = %d, want 1", w, n)
		}
		if got := take(r, r.Cap(), w); !slices.Equal(got, []int{1, 2, 3, 99}) {
			t.Fatalf("width %d: final contents %v", w, got)
		}
	}
}

func TestRingBatchPartialAtFull(t *testing.T) {
	r := NewRing[int](4) // capacity 4
	if n := r.EnqueueBatch([]int{0}); n != 1 {
		t.Fatal(n)
	}
	// Only 3 slots remain: a batch of 5 must partially succeed with 3.
	if n := r.EnqueueBatch([]int{1, 2, 3, 4, 5}); n != 3 {
		t.Fatalf("partial EnqueueBatch = %d, want 3", n)
	}
	// FIFO across the lone item and the partial batch.
	if got := take(r, 4, 1); !slices.Equal(got, seq(0, 4)) {
		t.Fatalf("contents %v", got)
	}
}

func TestRingBatchPartialAtEmpty(t *testing.T) {
	r := NewRing[int](8)
	dst := make([]int, 4)
	if n := r.DequeueBatch(dst); n != 0 {
		t.Fatalf("DequeueBatch on empty ring = %d, want 0", n)
	}
	r.EnqueueBatch([]int{7, 8})
	if n := r.DequeueBatch(dst); n != 2 || dst[0] != 7 || dst[1] != 8 {
		t.Fatalf("partial DequeueBatch: n=%d dst=%v", n, dst[:2])
	}
	if n := r.DequeueBatch(dst); n != 0 {
		t.Fatalf("drained ring DequeueBatch = %d, want 0", n)
	}
}

func TestRingBatchZeroLength(t *testing.T) {
	r := NewRing[int](4)
	if n := r.EnqueueBatch(nil); n != 0 {
		t.Fatalf("EnqueueBatch(nil) = %d", n)
	}
	if n := r.DequeueBatch(nil); n != 0 {
		t.Fatalf("DequeueBatch(nil) = %d", n)
	}
}

func TestRingCapacityRounding(t *testing.T) {
	if NewRing[int](3).Cap() != 4 {
		t.Fatal("capacity must round up to a power of two")
	}
	if NewRing[int](0).Cap() != 2 {
		t.Fatal("minimum capacity is 2")
	}
}

// TestRingConcurrentNoLoss pushes from several producers and drains from
// several consumers under the race detector: no item may be lost or
// duplicated, whether the two sides move one item at a time, whole rings,
// or different widths from each other.
func TestRingConcurrentNoLoss(t *testing.T) {
	const ringCap = 256
	for _, w := range []struct{ produce, consume int }{
		{1, 1}, {3, 10}, {ringCap, ringCap}, {1, ringCap}, {ringCap, 1},
	} {
		t.Run(fmt.Sprintf("produce%d_consume%d", w.produce, w.consume), func(t *testing.T) {
			r := NewRing[[2]int](ringCap)
			const producers, perProducer = 4, 4096
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					buf := make([][2]int, 0, w.produce)
					for next := 0; next < perProducer; next += len(buf) {
						buf = buf[:0]
						for i := 0; i < w.produce && next+i < perProducer; i++ {
							buf = append(buf, [2]int{p, next + i})
						}
						for sent := 0; sent < len(buf); {
							n := r.EnqueueBatch(buf[sent:])
							if n == 0 {
								runtime.Gosched()
							}
							sent += n
						}
					}
				}(p)
			}

			var mu sync.Mutex
			seen := make(map[[2]int]int)
			var cg sync.WaitGroup
			done := make(chan struct{})
			for c := 0; c < 4; c++ {
				cg.Add(1)
				go func() {
					defer cg.Done()
					dst := make([][2]int, w.consume)
					for {
						n := r.DequeueBatch(dst)
						if n == 0 {
							select {
							case <-done:
								// Producers have finished: an empty ring stays empty.
								if n = r.DequeueBatch(dst); n == 0 {
									return
								}
							default:
								runtime.Gosched()
								continue
							}
						}
						mu.Lock()
						for i := 0; i < n; i++ {
							seen[dst[i]]++
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			close(done)
			cg.Wait()
			if len(seen) != producers*perProducer {
				t.Fatalf("lost items: got %d unique, want %d", len(seen), producers*perProducer)
			}
			for k, c := range seen {
				if c != 1 {
					t.Fatalf("item %v seen %d times", k, c)
				}
			}
		})
	}
}

func TestRingQuickFIFOSingleStream(t *testing.T) {
	// Property: a single producer/consumer sees exactly its input sequence,
	// at any pair of widths.
	f := func(vals []uint8, in, out uint8) bool {
		r := NewRing[uint8](len(vals) + 1)
		if put(r, vals, int(in)%r.Cap()+1) != len(vals) {
			return false
		}
		got := take(r, len(vals), int(out)%r.Cap()+1)
		return slices.Equal(got, vals) && r.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Width 1 on both sides is the case every lone request takes; do not
	// leave it to the generator.
	one := func(vals []uint8) bool { return f(vals, 0, 0) }
	if err := quick.Check(one, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
