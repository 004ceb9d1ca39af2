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
//
// The store holds its data as arena buffer handles (internal/arena), so the
// device is one more holder under the stack's ownership rule (DESIGN.md
// §13): a write whose payload is a handle is stored by reference, and a
// read with no destination is answered with a retained view of the stored
// block. Like a real DMA engine, such a transfer costs the host CPU no
// copy. Only a bare slice (a borrowed buffer) is copied in or out.
package device

import (
	"errors"
	"fmt"
	"hash/crc32"
	gort "runtime"
	"sync"
	"sync/atomic"

	"labstor/internal/arena"
	"labstor/internal/telemetry"
)

// ErrOutOfRange is returned for accesses beyond the device capacity.
var ErrOutOfRange = errors.New("device: access out of range")

const (
	// BlockSize is the store's unit of ownership: each block is one arena
	// handle, held by reference when a write handed it down. It is the
	// platform's one block size: LabFS, LabKVS, the LRU's pages and
	// readahead all move whole blocks of it, so a cached page is a stored
	// block.
	BlockSize = 4096
	// chunkSize is the span of one map entry: a chunk holds chunkBlocks
	// block handles, so a block's lookup is one map access per chunk.
	chunkSize   = 64 * 1024
	chunkBlocks = chunkSize / BlockSize
)

// Data-path copy accounting. Writes of a handle and block reads with no
// destination move nothing; a bare slice is still copied in (dma_write) or
// out (dma_read), and a partial write into a block that another holder
// shares copies the block first (cow_copy).
var (
	copyDMAWrite = telemetry.CopySite("device.dma_write")
	copyDMARead  = telemetry.CopySite("device.dma_read")
	copyCOW      = telemetry.CopySite("device.cow_copy")
)

// chunk is the blocks of one chunkSize span; a zero handle is a hole.
type chunk struct {
	blocks [chunkBlocks]arena.Handle
	live   int // valid blocks
	// sums is allocated only under debug checks (arena.DebugChecks): the
	// CRC of each block adopted from a writer's handle, with bit 32 set,
	// and 0 for a block the store wrote itself.
	sums *[chunkBlocks]uint64
}

// storeStripe is one lock stripe: a mutex plus the chunk shard it guards.
// The pad spaces stripes a cache line apart so uncontended stripes do not
// false-share their lock words.
type storeStripe struct {
	mu     sync.RWMutex
	chunks map[int64]*chunk
	_      [128 - 32]byte
}

// SparseStore is a sparse byte store of 4 KiB blocks. It lets us model
// multi-terabyte devices without reserving RAM: blocks materialize on
// first write; reads of unwritten ranges return zeros (as a fresh device
// would).
//
// Every block is an arena handle. A block-aligned write of a handle
// (Adopt) retains views of the writer's buffer, so the stored bytes are
// the ones the writer handed down, uncopied; the writer keeps its own
// reference and, by the frozen-payload rule, never writes those bytes
// again. A bare slice (WriteAt) is copied into blocks the store owns. A
// write never changes bytes another holder can see: a block that is not
// the store's alone (Sole) is replaced, and a partial write copies it
// first. So a read with no destination (ReadHandle) can hand out a
// retained view of the stored block, which stays as it was for as long as
// the reader holds it.
//
// The chunk map is lock-striped by chunk index (paper §III-E: per-worker
// partitioning removes shared-state contention), so concurrent workers
// touching disjoint block ranges take disjoint locks. Atomicity is per
// block: a read that spans blocks concurrent with a write that spans the
// same blocks may observe the write partially applied at block granularity
// — the same guarantee a real device gives across sectors.
type SparseStore struct {
	name         string // the device's, for debug-check panics
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
		s.stripes[i].chunks = make(map[int64]*chunk)
	}
	return s
}

// Capacity returns the logical size in bytes.
func (s *SparseStore) Capacity() int64 { return s.capacity }

// Stripes returns the number of lock stripes.
func (s *SparseStore) Stripes() int { return len(s.stripes) }

// Materialized returns the number of bytes held in blocks, adopted or
// owned. It is an O(1) atomic load — no lock is taken.
func (s *SparseStore) Materialized() int64 { return s.materialized.Load() }

func (s *SparseStore) stripe(ci int64) *storeStripe { return &s.stripes[ci&s.mask] }

func (s *SparseStore) check(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > s.capacity {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, s.capacity)
	}
	return nil
}

// lockChunk write-locks chunk ci's stripe and returns the chunk, created
// if absent.
func (s *SparseStore) lockChunk(ci int64) (*storeStripe, *chunk) {
	st := s.stripe(ci)
	st.mu.Lock()
	c := st.chunks[ci]
	if c == nil {
		c = new(chunk)
		st.chunks[ci] = c
	}
	return st, c
}

// WriteAt copies p into the store at off. Locks are taken per chunk, so
// writers to disjoint chunk ranges proceed in parallel.
func (s *SparseStore) WriteAt(p []byte, off int64) (int, error) {
	if err := s.check(off, len(p)); err != nil {
		return 0, err
	}
	for done := 0; done < len(p); {
		ci := (off + int64(done)) / chunkSize
		st, c := s.lockChunk(ci)
		for bi := int((off+int64(done))%chunkSize) / BlockSize; bi < chunkBlocks && done < len(p); bi++ {
			bo := int((off + int64(done)) % BlockSize)
			n := min(BlockSize-bo, len(p)-done)
			s.writeBlock(c, bi, ci*chunkSize+int64(bi*BlockSize), bo, p[done:done+n])
			done += n
		}
		st.mu.Unlock()
	}
	copyDMAWrite.Add(len(p))
	return len(p), nil
}

// writeBlock copies src into block bi of c at byte bo. Caller holds the
// stripe's write lock.
func (s *SparseStore) writeBlock(c *chunk, bi int, at int64, bo int, src []byte) {
	b := c.blocks[bi]
	if b.Valid() && b.Sole() {
		// Nobody else holds the block: write it in place.
		s.verify(c, bi, at)
		copy(b.Bytes()[bo:], src)
		s.record(c, bi, false)
		return
	}
	nb := arena.New(BlockSize)
	dst := nb.Bytes()
	if len(src) < BlockSize && b.Valid() {
		copyCOW.Add(copy(dst, b.Bytes()))
	}
	copy(dst[bo:], src)
	s.put(c, bi, nb, at, false)
}

// Adopt stores h's bytes at off by reference: each block of h becomes a
// retained view, and nothing is copied. The caller keeps its own
// reference and must not write the bytes again (they are frozen, as a
// payload is after Request.SetPayload). A range that is not block-aligned
// is copied, as WriteAt does.
func (s *SparseStore) Adopt(h arena.Handle, off int64) (int, error) {
	n := h.Len()
	if off%BlockSize != 0 || n%BlockSize != 0 {
		return s.WriteAt(h.Bytes(), off)
	}
	if err := s.check(off, n); err != nil {
		return 0, err
	}
	for done := 0; done < n; {
		ci := (off + int64(done)) / chunkSize
		st, c := s.lockChunk(ci)
		for bi := int((off+int64(done))%chunkSize) / BlockSize; bi < chunkBlocks && done < n; bi++ {
			s.put(c, bi, h.Slice(done, done+BlockSize).Retain(), ci*chunkSize+int64(bi*BlockSize), true)
			done += BlockSize
		}
		st.mu.Unlock()
	}
	return n, nil
}

// put makes h, an owned reference, block bi of c and releases the block it
// replaces. Caller holds the stripe's write lock.
func (s *SparseStore) put(c *chunk, bi int, h arena.Handle, at int64, adopted bool) {
	if old := c.blocks[bi]; old.Valid() {
		s.verify(c, bi, at)
		old.Release()
	} else {
		c.live++
		s.materialized.Add(BlockSize)
	}
	c.blocks[bi] = h
	s.record(c, bi, adopted)
}

// ReadAt fills p from the store at off; unwritten ranges read as zeros.
func (s *SparseStore) ReadAt(p []byte, off int64) (int, error) {
	if err := s.check(off, len(p)); err != nil {
		return 0, err
	}
	for done := 0; done < len(p); {
		ci := (off + int64(done)) / chunkSize
		st := s.stripe(ci)
		st.mu.RLock()
		c := st.chunks[ci]
		for bi := int((off+int64(done))%chunkSize) / BlockSize; bi < chunkBlocks && done < len(p); bi++ {
			bo := int((off + int64(done)) % BlockSize)
			dst := p[done : done+min(BlockSize-bo, len(p)-done)]
			if c != nil && c.blocks[bi].Valid() {
				s.verify(c, bi, ci*chunkSize+int64(bi*BlockSize))
				copy(dst, c.blocks[bi].Bytes()[bo:])
			} else {
				clear(dst)
			}
			done += len(dst)
		}
		st.mu.RUnlock()
	}
	copyDMARead.Add(len(p))
	return len(p), nil
}

// ReadHandle returns the n bytes at off as an owned handle. A range within
// one stored block is a retained view of that block, so nothing is
// copied, and the view keeps its bytes however the block is overwritten
// or trimmed later; a range within one hole is a fresh zeroed handle. A
// range that spans blocks is copied into a fresh handle, as ReadAt does.
func (s *SparseStore) ReadHandle(off int64, n int) (arena.Handle, error) {
	if err := s.check(off, n); err != nil {
		return arena.Handle{}, err
	}
	bo := int(off % BlockSize)
	if bo+n > BlockSize {
		h := arena.Acquire(n)
		s.ReadAt(h.Bytes(), off)
		return h, nil
	}
	ci := off / chunkSize
	bi := int(off%chunkSize) / BlockSize
	st := s.stripe(ci)
	st.mu.RLock()
	var h arena.Handle
	if c := st.chunks[ci]; c != nil && c.blocks[bi].Valid() {
		s.verify(c, bi, off-int64(bo))
		h = c.blocks[bi].Retain()
	}
	st.mu.RUnlock()
	if !h.Valid() {
		h = arena.Acquire(n)
		clear(h.Bytes())
		return h, nil
	}
	if n < BlockSize {
		h = h.Narrow(bo, bo+n)
	}
	return h, nil
}

// Trim discards the blocks fully covered by [off, off+n), returning the
// range to its zeroed state (models DISCARD/TRIM).
func (s *SparseStore) Trim(off, n int64) error {
	if err := s.check(off, int(min(n, int64(int(^uint(0)>>1))))); err != nil {
		return err
	}
	first := (off + BlockSize - 1) / BlockSize // block numbers
	last := (off + n) / BlockSize
	for b := first; b < last; {
		ci := b / chunkBlocks
		end := min(last, (ci+1)*chunkBlocks)
		st := s.stripe(ci)
		st.mu.Lock()
		if c := st.chunks[ci]; c != nil {
			for ; b < end; b++ {
				bi := int(b % chunkBlocks)
				if c.blocks[bi].Valid() {
					s.verify(c, bi, b*BlockSize)
					c.blocks[bi].Release()
					c.blocks[bi] = arena.Handle{}
					s.record(c, bi, false)
					c.live--
					s.materialized.Add(-BlockSize)
				}
			}
			if c.live == 0 {
				delete(st.chunks, ci)
			}
		}
		b = end
		st.mu.Unlock()
	}
	return nil
}

// record notes block bi's checksum if it was adopted and debug checks are
// on, and forgets it otherwise. Caller holds the stripe's write lock.
func (s *SparseStore) record(c *chunk, bi int, adopted bool) {
	switch {
	case adopted && arena.DebugChecks():
		if c.sums == nil {
			c.sums = new([chunkBlocks]uint64)
		}
		c.sums[bi] = 1<<32 | uint64(crc32.ChecksumIEEE(c.blocks[bi].Bytes()))
	case c.sums != nil:
		c.sums[bi] = 0
	}
}

// verify panics if adopted block bi, at device offset at, no longer
// matches the checksum taken when it was stored: some holder wrote into a
// buffer after handing it down, and every reader of the block would see
// the change. Caller holds the stripe's lock.
func (s *SparseStore) verify(c *chunk, bi int, at int64) {
	if c.sums == nil || c.sums[bi] == 0 {
		return
	}
	if got := crc32.ChecksumIEEE(c.blocks[bi].Bytes()); uint64(got) != c.sums[bi]&(1<<32-1) {
		panic(fmt.Sprintf("device %s: adopted block at offset %d changed after its write completed (crc %08x, stored %08x): a holder wrote into a buffer it had handed down", s.name, at, got, uint32(c.sums[bi])))
	}
}
