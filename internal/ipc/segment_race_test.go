package ipc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestSegmentGrantRevokeMapRace hammers a SegmentManager with concurrent
// Allocate/Grant/Revoke/Map/Free from many goroutines and then checks the
// manager's gauge counters against a ground-truth walk of the live
// segments. This is the ordering trap the freed-flag exists for: a Grant
// racing Free must either land before the free (and be subtracted with
// the segment's ACL) or observe ErrSegmentFreed — a grant that "succeeds"
// after the accounting ran would leave the grants gauge drifted forever.
func TestSegmentGrantRevokeMapRace(t *testing.T) {
	m := NewSegmentManager()
	const (
		goroutines = 16
		opsPer     = 2000
		segNames   = 8
		pids       = 32
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				name := fmt.Sprintf("seg-%d", rng.Intn(segNames))
				pid := 100 + rng.Intn(pids)
				switch rng.Intn(10) {
				case 0, 1, 2:
					s := m.Allocate(name, 4096, Credentials{PID: pid})
					if s == nil {
						t.Error("Allocate returned nil")
						return
					}
				case 3, 4:
					if s, err := m.Lookup(name); err == nil {
						// Error is fine (racing Free); silent success on a
						// freed segment is not — Map below cross-checks.
						_ = s.Grant(pid)
					}
				case 5:
					if s, err := m.Lookup(name); err == nil {
						s.Revoke(pid)
					}
				case 6, 7:
					if s, err := m.Lookup(name); err == nil {
						b, err := s.Map(pid)
						if err == nil && len(b) != 4096 {
							t.Errorf("Map returned %d bytes, want 4096", len(b))
							return
						}
						if err != nil && !errors.Is(err, ErrAccessDenied) && !errors.Is(err, ErrSegmentFreed) {
							t.Errorf("Map: unexpected error %v", err)
							return
						}
					}
				case 8:
					if s, err := m.Lookup(name); err == nil {
						if n := s.Size(); n != 4096 {
							t.Errorf("Size returned %d, want 4096", n)
							return
						}
					}
				case 9:
					m.Free(name)
				}
			}
		}(int64(g) * 7919)
	}
	wg.Wait()

	// Ground truth: walk the live segments and recount.
	var wantCount, wantBytes, wantGrants int64
	for _, name := range m.Names() {
		s, err := m.Lookup(name)
		if err != nil {
			continue
		}
		wantCount++
		wantBytes += int64(s.Size())
		s.mu.RLock()
		if s.freed {
			t.Errorf("segment %q is freed but still in the manager map", name)
		}
		wantGrants += int64(len(s.acl))
		s.mu.RUnlock()
	}
	got := m.Stats()
	if got.Count != wantCount || got.Bytes != wantBytes || got.Grants != wantGrants {
		t.Fatalf("stats drifted after race shuffle: got %+v, want count=%d bytes=%d grants=%d",
			got, wantCount, wantBytes, wantGrants)
	}
}

// TestSegmentFreeOrdering pins the specific interleaving: a grant issued
// after Free must fail, and a mapping taken before Free stays readable
// (pointers don't fault) while new Maps are refused.
func TestSegmentFreeOrdering(t *testing.T) {
	m := NewSegmentManager()
	cred := Credentials{PID: 1}
	s := m.Allocate("zc", 1024, cred)
	if err := s.Grant(2); err != nil {
		t.Fatalf("Grant(2): %v", err)
	}
	if st := m.Stats(); st.Count != 1 || st.Bytes != 1024 || st.Grants != 2 {
		t.Fatalf("stats before free: %+v", st)
	}
	old, err := s.Map(2)
	if err != nil {
		t.Fatalf("Map before free: %v", err)
	}
	m.Free("zc")
	if err := s.Grant(3); !errors.Is(err, ErrSegmentFreed) {
		t.Fatalf("Grant after free: got %v, want ErrSegmentFreed", err)
	}
	if _, err := s.Map(2); !errors.Is(err, ErrSegmentFreed) {
		t.Fatalf("Map after free: got %v, want ErrSegmentFreed", err)
	}
	if len(old) != 1024 {
		t.Fatalf("pre-free mapping shrank to %d bytes", len(old))
	}
	if st := m.Stats(); st.Count != 0 || st.Bytes != 0 || st.Grants != 0 {
		t.Fatalf("stats after free not zeroed: %+v", st)
	}
	// Re-allocating the name after Free yields a fresh live segment.
	s2 := m.Allocate("zc", 2048, cred)
	if s2 == s {
		t.Fatal("Allocate after Free returned the freed segment")
	}
	if _, err := s2.Map(1); err != nil {
		t.Fatalf("Map on re-allocated segment: %v", err)
	}
}
