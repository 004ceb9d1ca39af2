// Package blockalloc is the per-worker block allocator LabFS and LabKVS
// share (paper §III-E): a data region's free blocks are divided among
// pools, a worker takes blocks from its own pool, and a worker whose pool
// runs short steals half of the richest other pool.
//
// One mutex guards every pool. The pools decide placement — which blocks a
// worker is handed — not locking.
package blockalloc

import (
	"errors"
	"slices"
	"sync"
)

// ErrNoSpace is returned when the pools together hold fewer free blocks
// than a request asks for.
var ErrNoSpace = errors.New("blockalloc: device full")

// Allocator hands out the free blocks of one data region.
type Allocator struct {
	mu    sync.Mutex
	pools [][]int64 // free block numbers, per pool; grants come off the top
}

// New divides blocks [first, first+count) among pools pools: pool i gets
// the i-th count/pools blocks of the region, the last pool also the
// remainder, each minus the blocks in used (which may be nil). A pool
// grants its highest block first, or its lowest if lowFirst.
func New(pools int, first, count int64, used map[int64]bool, lowFirst bool) *Allocator {
	a := &Allocator{pools: make([][]int64, pools)}
	per := count / int64(pools)
	b := first
	for i := range a.pools {
		end := b + per
		if i == pools-1 {
			end = first + count
		}
		pool := make([]int64, 0, end-b)
		for ; b < end; b++ {
			if !used[b] {
				pool = append(pool, b)
			}
		}
		if lowFirst {
			slices.Reverse(pool)
		}
		a.pools[i] = pool
	}
	return a
}

func (a *Allocator) poolFor(worker int) int {
	if worker < 0 {
		worker = -worker
	}
	return worker % len(a.pools)
}

// Alloc fills dst with free blocks from worker's pool, taken off its top.
// While that pool holds fewer than len(dst) blocks it steals half of the
// richest other pool. If all pools together hold fewer than len(dst) it
// returns ErrNoSpace and moves nothing.
func (a *Allocator) Alloc(worker int, dst []int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.poolFor(worker)
	if len(a.pools[p]) < len(dst) {
		if a.free() < int64(len(dst)) {
			return ErrNoSpace
		}
		for len(a.pools[p]) < len(dst) {
			richest := -1
			for i, pool := range a.pools {
				if i != p && (richest < 0 || len(pool) > len(a.pools[richest])) {
					richest = i
				}
			}
			src := a.pools[richest]
			take := (len(src) + 1) / 2
			a.pools[p] = append(a.pools[p], src[len(src)-take:]...)
			a.pools[richest] = src[:len(src)-take]
		}
	}
	pool := a.pools[p]
	copy(dst, pool[len(pool)-len(dst):])
	a.pools[p] = pool[:len(pool)-len(dst)]
	return nil
}

// Free returns blocks to worker's pool.
func (a *Allocator) Free(worker int, blocks ...int64) {
	a.mu.Lock()
	p := a.poolFor(worker)
	a.pools[p] = append(a.pools[p], blocks...)
	a.mu.Unlock()
}

// FreeBlocks returns the number of free blocks in all pools.
func (a *Allocator) FreeBlocks() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.free()
}

func (a *Allocator) free() int64 {
	var n int64
	for _, pool := range a.pools {
		n += int64(len(pool))
	}
	return n
}
