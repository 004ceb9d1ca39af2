package labfs

import (
	"testing"

	"labstor/internal/blockalloc"
)

// TestAllocatorNoDoubleAllocation drains an allocator divided among LabFS's
// allocPools pools, one block per request from every worker in turn, and
// checks no block is granted twice or outside the data region.
func TestAllocatorNoDoubleAllocation(t *testing.T) {
	const first, count = 100, 300
	a := blockalloc.New(allocPools, first, count, nil, false)
	seen := make(map[int64]bool)
	var blk [1]int64
	for i := 0; i < count; i++ {
		if err := a.Alloc(i%allocPools, blk[:]); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if seen[blk[0]] {
			t.Fatalf("block %d allocated twice", blk[0])
		}
		if blk[0] < first || blk[0] >= first+count {
			t.Fatalf("block %d out of range", blk[0])
		}
		seen[blk[0]] = true
	}
	if err := a.Alloc(0, blk[:]); err != blockalloc.ErrNoSpace {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
}

// TestAllocatorMarkUsed checks that a block replay finds held by a live
// extent, and so passes to blockalloc.New as used, is never handed out.
func TestAllocatorMarkUsed(t *testing.T) {
	a := blockalloc.New(2, 0, 10, map[int64]bool{5: true}, false)
	if a.FreeBlocks() != 9 {
		t.Fatalf("free %d, want 9", a.FreeBlocks())
	}
	var blk [1]int64
	for i := 0; i < 9; i++ {
		if err := a.Alloc(0, blk[:]); err != nil {
			t.Fatal(err)
		}
		if blk[0] == 5 {
			t.Fatal("used block handed out")
		}
	}
	if err := a.Alloc(0, blk[:]); err != blockalloc.ErrNoSpace {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
}
