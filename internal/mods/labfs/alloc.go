package labfs

import (
	"errors"
	"sync"
)

// ErrNoSpace is returned when every allocator pool is empty.
var ErrNoSpace = errors.New("labfs: device full")

// allocator is LabFS's scalable per-worker block allocator (paper §III-E):
// device blocks are divided evenly among a pool per worker, so concurrent
// workers allocate without contention; a worker whose pool runs dry steals
// half the free blocks of the richest pool.
type allocator struct {
	mu    sync.Mutex
	pools [][]int64 // free block numbers, per pool
}

// allocPools is the number of pools LabFS divides its blocks among, one per
// expected worker.
const allocPools = 16

// newAllocator divides blocks [first, first+count) among n pools.
func newAllocator(n int, first, count int64) *allocator {
	a := &allocator{pools: make([][]int64, n)}
	per := count / int64(n)
	b := first
	for i := 0; i < n; i++ {
		take := per
		if i == n-1 {
			take = first + count - b
		}
		pool := make([]int64, 0, take)
		for j := int64(0); j < take; j++ {
			pool = append(pool, b)
			b++
		}
		a.pools[i] = pool
	}
	return a
}

// newEmptyAllocator creates n empty pools (used before log replay rebuilds
// the free lists).
func newEmptyAllocator(n int) *allocator {
	return &allocator{pools: make([][]int64, n)}
}

func (a *allocator) poolFor(worker int) int {
	if worker < 0 {
		worker = -worker
	}
	return worker % len(a.pools)
}

// Alloc returns a free block for the given worker, stealing from the
// richest pool when the worker's own pool is empty.
func (a *allocator) Alloc(worker int) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.poolFor(worker)
	if len(a.pools[p]) == 0 {
		// Steal half of the richest pool's free blocks.
		richest, max := -1, 0
		for i, pool := range a.pools {
			if len(pool) > max {
				richest, max = i, len(pool)
			}
		}
		if richest < 0 || max == 0 {
			return 0, ErrNoSpace
		}
		take := (max + 1) / 2
		src := a.pools[richest]
		a.pools[p] = append(a.pools[p], src[len(src)-take:]...)
		a.pools[richest] = src[:len(src)-take]
	}
	pool := a.pools[p]
	blk := pool[len(pool)-1]
	a.pools[p] = pool[:len(pool)-1]
	return blk, nil
}

// Free returns a block to the worker's pool.
func (a *allocator) Free(worker int, blk int64) {
	a.mu.Lock()
	p := a.poolFor(worker)
	a.pools[p] = append(a.pools[p], blk)
	a.mu.Unlock()
}

// MarkUsed removes a specific block from whichever pool holds it (replay).
func (a *allocator) MarkUsed(blk int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, pool := range a.pools {
		for j, b := range pool {
			if b == blk {
				pool[j] = pool[len(pool)-1]
				a.pools[i] = pool[:len(pool)-1]
				return
			}
		}
	}
}

// FreeBlocks returns the total number of free blocks.
func (a *allocator) FreeBlocks() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, pool := range a.pools {
		n += int64(len(pool))
	}
	return n
}

// PoolSizes returns the per-pool free counts (diagnostics/tests).
func (a *allocator) PoolSizes() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int, len(a.pools))
	for i, p := range a.pools {
		out[i] = len(p)
	}
	return out
}
