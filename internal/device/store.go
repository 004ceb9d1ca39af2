// Package device provides the simulated storage hardware that substitutes
// for the paper's testbed devices (Intel P3700 NVMe, Intel SATA SSD, Seagate
// 15K HDD, bootloader-emulated PMEM).
//
// Each Device is *functional* — bytes written really persist in a sparse
// in-RAM store and can be read back — and *modeled* — every operation is
// assigned a virtual-time service interval derived from a per-device-class
// Profile (fixed access latency, transfer bandwidth, seek/rotation for HDDs,
// internal parallelism for NVMe/PMEM). The service interval is computed with
// vtime.Server so device-level queueing emerges naturally when submissions
// outpace the device.
package device

import (
	"errors"
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"

	"labstor/internal/telemetry"
)

// ErrOutOfRange is returned for accesses beyond the device capacity.
var ErrOutOfRange = errors.New("device: access out of range")

const chunkSize = 64 * 1024

// Data-path copy accounting: WriteAt/ReadAt are the store's "DMA" — the
// one transfer a zero-copy stack still pays, device <-> registered
// buffer.
var (
	copyDMAWrite = telemetry.CopySite("device.dma_write")
	copyDMARead  = telemetry.CopySite("device.dma_read")
)

// storeStripe is one lock stripe: a mutex plus the chunk shard it guards.
// The pad spaces stripes a cache line apart so uncontended stripes do not
// false-share their lock words.
type storeStripe struct {
	mu     sync.RWMutex
	chunks map[int64][]byte
	_      [128 - 32]byte
}

// SparseStore is a sparse, chunk-allocated byte store. It lets us model
// multi-terabyte devices without reserving RAM: chunks materialize on first
// write; reads of unwritten ranges return zeros (as a fresh device would).
//
// The chunk map is lock-striped by chunk index (paper §III-E: per-worker
// partitioning removes shared-state contention), so concurrent workers
// touching disjoint block ranges take disjoint locks. Atomicity is per
// chunk: a read that spans chunks concurrent with a write that spans the
// same chunks may observe the write partially applied at chunk granularity
// — the same guarantee a real device gives across sectors.
type SparseStore struct {
	capacity     int64
	mask         int64 // len(stripes)-1; stripe count is a power of two
	materialized atomic.Int64
	stripes      []storeStripe
}

// DefaultStripes returns the default stripe count: the smallest power of two
// ≥ 2× the host parallelism, clamped to [8, 256].
func DefaultStripes() int {
	n := nextPow2(2 * gort.GOMAXPROCS(0))
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256
	}
	return n
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewSparseStore returns a store with the given logical capacity in bytes,
// striped DefaultStripes() ways.
func NewSparseStore(capacity int64) *SparseStore {
	return newSparseStore(capacity, DefaultStripes())
}

// newSparseStore builds a store with an explicit stripe count, rounded up
// to a power of two. Only the in-package tests pass anything but
// DefaultStripes(): one stripe (a single global lock) is their reference
// for N.
func newSparseStore(capacity int64, stripes int) *SparseStore {
	stripes = nextPow2(stripes)
	s := &SparseStore{
		capacity: capacity,
		mask:     int64(stripes - 1),
		stripes:  make([]storeStripe, stripes),
	}
	for i := range s.stripes {
		s.stripes[i].chunks = make(map[int64][]byte)
	}
	return s
}

// Capacity returns the logical size in bytes.
func (s *SparseStore) Capacity() int64 { return s.capacity }

// Stripes returns the number of lock stripes.
func (s *SparseStore) Stripes() int { return len(s.stripes) }

// Materialized returns the number of bytes actually allocated. It is an
// O(1) atomic load — no lock is taken.
func (s *SparseStore) Materialized() int64 { return s.materialized.Load() }

func (s *SparseStore) stripe(ci int64) *storeStripe { return &s.stripes[ci&s.mask] }

func (s *SparseStore) check(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > s.capacity {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, s.capacity)
	}
	return nil
}

// WriteAt copies p into the store at off. Locks are taken per chunk, so
// writers to disjoint chunk ranges proceed in parallel.
func (s *SparseStore) WriteAt(p []byte, off int64) (int, error) {
	if err := s.check(off, len(p)); err != nil {
		return 0, err
	}
	written := 0
	for written < len(p) {
		ci := (off + int64(written)) / chunkSize
		co := int((off + int64(written)) % chunkSize)
		n := chunkSize - co
		if n > len(p)-written {
			n = len(p) - written
		}
		st := s.stripe(ci)
		st.mu.Lock()
		chunk, ok := st.chunks[ci]
		if !ok {
			chunk = make([]byte, chunkSize)
			st.chunks[ci] = chunk
			s.materialized.Add(chunkSize)
		}
		copy(chunk[co:co+n], p[written:written+n])
		st.mu.Unlock()
		written += n
	}
	copyDMAWrite.Add(written)
	return written, nil
}

// ReadAt fills p from the store at off; unwritten ranges read as zeros.
func (s *SparseStore) ReadAt(p []byte, off int64) (int, error) {
	if err := s.check(off, len(p)); err != nil {
		return 0, err
	}
	read := 0
	for read < len(p) {
		ci := (off + int64(read)) / chunkSize
		co := int((off + int64(read)) % chunkSize)
		n := chunkSize - co
		if n > len(p)-read {
			n = len(p) - read
		}
		st := s.stripe(ci)
		st.mu.RLock()
		if chunk, ok := st.chunks[ci]; ok {
			copy(p[read:read+n], chunk[co:co+n])
		} else {
			for i := read; i < read+n; i++ {
				p[i] = 0
			}
		}
		st.mu.RUnlock()
		read += n
	}
	copyDMARead.Add(read)
	return read, nil
}

// Trim discards the chunks fully covered by [off, off+n), returning the
// range to its zeroed state (models DISCARD/TRIM).
func (s *SparseStore) Trim(off, n int64) error {
	if err := s.check(off, int(min64(n, int64(int(^uint(0)>>1))))); err != nil {
		return err
	}
	first := (off + chunkSize - 1) / chunkSize
	last := (off + n) / chunkSize
	for ci := first; ci < last; ci++ {
		st := s.stripe(ci)
		st.mu.Lock()
		if _, ok := st.chunks[ci]; ok {
			delete(st.chunks, ci)
			s.materialized.Add(-chunkSize)
		}
		st.mu.Unlock()
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
