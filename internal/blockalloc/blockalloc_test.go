package blockalloc

import (
	"slices"
	"testing"
	"testing/quick"
)

// sizes returns the per-pool free counts.
func sizes(a *Allocator) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int, len(a.pools))
	for i, p := range a.pools {
		out[i] = len(p)
	}
	return out
}

// take allocates one block for worker.
func take(t *testing.T, a *Allocator, worker int) int64 {
	t.Helper()
	var b [1]int64
	if err := a.Alloc(worker, b[:]); err != nil {
		t.Fatalf("alloc for worker %d: %v", worker, err)
	}
	return b[0]
}

func TestAllocator(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"division", func(t *testing.T) {
			a := New(4, 100, 1002, nil, false)
			if a.FreeBlocks() != 1002 {
				t.Fatalf("free %d", a.FreeBlocks())
			}
			if got := sizes(a); !slices.Equal(got, []int{250, 250, 250, 252}) {
				t.Fatalf("pools %v, want 250 each and the remainder in the last", got)
			}
			// Pool 1 holds the second quarter and grants from its top.
			if b := take(t, a, 1); b != 100+2*250-1 {
				t.Fatalf("worker 1 got block %d, want %d", b, 100+2*250-1)
			}
		}},
		{"low first", func(t *testing.T) {
			a := New(1, 100, 10, map[int64]bool{101: true}, true)
			run := make([]int64, 3)
			if err := a.Alloc(0, run); err != nil || !slices.Equal(run, []int64{103, 102, 100}) {
				t.Fatalf("first run %v (%v), want the lowest free blocks [103 102 100]", run, err)
			}
		}},
		{"no double allocation", func(t *testing.T) {
			a := New(3, 0, 300, map[int64]bool{5: true}, false)
			seen := make(map[int64]bool)
			for i := 0; i < 299; i++ {
				b := take(t, a, i%3)
				if seen[b] || b == 5 || b < 0 || b >= 300 {
					t.Fatalf("alloc %d: block %d (used, out of range or granted before)", i, b)
				}
				seen[b] = true
			}
			var b [1]int64
			if err := a.Alloc(0, b[:]); err != ErrNoSpace {
				t.Fatalf("alloc from empty pools: %v, want ErrNoSpace", err)
			}
		}},
		{"stealing", func(t *testing.T) {
			a := New(2, 0, 100, nil, false)
			for i := 0; i < 50; i++ {
				take(t, a, 0)
			}
			take(t, a, 0) // pool 0 is empty: steals half of pool 1
			if got := sizes(a); !slices.Equal(got, []int{24, 25}) {
				t.Fatalf("pools %v after the steal, want [24 25]", got)
			}
		}},
		{"free", func(t *testing.T) {
			a := New(2, 0, 10, nil, false)
			b := take(t, a, 0)
			a.Free(1, b)
			if a.FreeBlocks() != 10 {
				t.Fatal("free did not return the block")
			}
			if got := take(t, a, 1); got != b {
				t.Fatalf("worker 1 got %d, want the block it freed (%d)", got, b)
			}
		}},
		{"a run larger than its pool steals until it fits", func(t *testing.T) {
			a := New(4, 0, 40, nil, false)
			run := make([]int64, 25)
			if err := a.Alloc(2, run); err != nil {
				t.Fatal(err)
			}
			if a.FreeBlocks() != 15 {
				t.Fatalf("%d free after a 25-block run of 40, want 15", a.FreeBlocks())
			}
			seen := make(map[int64]bool)
			for _, b := range run {
				if seen[b] || b < 0 || b >= 40 {
					t.Fatalf("run %v grants block %d twice or out of range", run, b)
				}
				seen[b] = true
			}
			if err := a.Alloc(2, make([]int64, 16)); err != ErrNoSpace {
				t.Fatalf("16-block run from 15 free: %v, want ErrNoSpace", err)
			}
			if a.FreeBlocks() != 15 {
				t.Fatalf("a failed run moved the free count to %d", a.FreeBlocks())
			}
			before := sizes(a)
			if err := a.Alloc(0, make([]int64, 16)); err != ErrNoSpace || !slices.Equal(sizes(a), before) {
				t.Fatalf("a failed run: %v, pools %v, before %v", err, sizes(a), before)
			}
		}},
		{"an empty used set is nil", func(t *testing.T) {
			a, b := New(16, 64, 1000, nil, false), New(16, 64, 1000, map[int64]bool{}, false)
			for i := 0; i < 1000; i++ {
				if x, y := take(t, a, i%5), take(t, b, i%5); x != y {
					t.Fatalf("grant %d: %d from New(nil), %d from New(map{})", i, x, y)
				}
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestAllocatorQuickConservation: alloc/free sequences of runs of 1-4
// blocks across workers never lose or duplicate a block.
func TestAllocatorQuickConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		a := New(3, 0, 60, nil, false)
		var held []int64
		owned := make(map[int64]bool)
		for _, op := range ops {
			w, n := int(op>>2)%3, int(op>>4)%4+1
			if op%2 == 0 {
				run := make([]int64, n)
				if err := a.Alloc(w, run); err != nil {
					if err != ErrNoSpace || a.FreeBlocks() >= int64(n) {
						return false
					}
					continue
				}
				for _, b := range run {
					if owned[b] {
						return false // double allocation
					}
					owned[b] = true
				}
				held = append(held, run...)
			} else if len(held) > 0 {
				n = min(n, len(held))
				a.Free(w, held[len(held)-n:]...)
				for _, b := range held[len(held)-n:] {
					delete(owned, b)
				}
				held = held[:len(held)-n]
			}
		}
		return a.FreeBlocks()+int64(len(held)) == 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
