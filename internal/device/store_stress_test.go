package device

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

func TestSparseStoreStripeDefaults(t *testing.T) {
	s := NewSparseStore(1 << 20)
	n := s.Stripes()
	if n < 8 || n&(n-1) != 0 {
		t.Fatalf("default stripes = %d, want power of two >= 8", n)
	}
	if got := newSparseStore(1<<20, 1).Stripes(); got != 1 {
		t.Fatalf("stripes=1 gave %d", got)
	}
	if got := newSparseStore(1<<20, 3).Stripes(); got != 4 {
		t.Fatalf("stripes=3 should round up to 4, got %d", got)
	}
	if n != DefaultStripes() {
		t.Fatalf("default store has %d stripes, want DefaultStripes() = %d", n, DefaultStripes())
	}
}

// TestSparseStoreStripedDisjointWriters checks functional correctness under
// the workload striping targets: concurrent writers on disjoint chunk
// ranges, with offsets straddling chunk (and therefore stripe) boundaries.
func TestSparseStoreStripedDisjointWriters(t *testing.T) {
	const (
		writers = 8
		region  = int64(4 * chunkSize)
	)
	s := newSparseStore(writers*region, 8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := int64(id) * region
			pat := bytes.Repeat([]byte{byte('A' + id)}, chunkSize+123) // crosses a chunk boundary
			for i := 0; i < 20; i++ {
				off := base + int64(i)*(region-int64(len(pat)))/20
				if _, err := s.WriteAt(pat, off); err != nil {
					t.Errorf("writer %d: %v", id, err)
					return
				}
				got := make([]byte, len(pat))
				if _, err := s.ReadAt(got, off); err != nil {
					t.Errorf("reader %d: %v", id, err)
					return
				}
				if !bytes.Equal(got, pat) {
					t.Errorf("writer %d: readback mismatch at off %d", id, off)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSparseStoreConcurrentStress hammers one store with a mixed
// ReadAt/WriteAt/Trim workload from many goroutines (run under the race
// detector by scripts/check.sh), then checks the atomic materialized
// counter agrees with the chunks actually resident.
func TestSparseStoreConcurrentStress(t *testing.T) {
	const capacity = int64(8 << 20)
	for _, stripes := range []int{1, 8} {
		s := newSparseStore(capacity, stripes)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				buf := make([]byte, 3*chunkSize)
				for i := 0; i < 200; i++ {
					n := 1 + rng.Intn(len(buf)-1)
					off := rng.Int63n(capacity - int64(n))
					switch rng.Intn(4) {
					case 0:
						if _, err := s.ReadAt(buf[:n], off); err != nil {
							t.Errorf("read: %v", err)
							return
						}
					case 3:
						if err := s.Trim(off, int64(n)); err != nil {
							t.Errorf("trim: %v", err)
							return
						}
					default:
						if _, err := s.WriteAt(buf[:n], off); err != nil {
							t.Errorf("write: %v", err)
							return
						}
					}
				}
			}(int64(g))
		}
		wg.Wait()

		var resident int64
		for i := range s.stripes {
			resident += int64(len(s.stripes[i].chunks))
		}
		if got := s.Materialized(); got != resident*chunkSize {
			t.Fatalf("stripes=%d: Materialized()=%d, resident chunks say %d", stripes, got, resident*chunkSize)
		}
	}
}
