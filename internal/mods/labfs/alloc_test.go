package labfs

import (
	"testing"
	"testing/quick"
)

func TestAllocatorDivision(t *testing.T) {
	a := newAllocator(4, 100, 1000)
	if a.FreeBlocks() != 1000 {
		t.Fatalf("free %d", a.FreeBlocks())
	}
	sizes := a.PoolSizes()
	if len(sizes) != 4 {
		t.Fatalf("%d pools, want 4", len(sizes))
	}
	for _, s := range sizes {
		if s != 250 {
			t.Fatalf("uneven division %v", sizes)
		}
	}
}

func TestAllocatorNoDoubleAllocation(t *testing.T) {
	a := newAllocator(3, 0, 300)
	seen := make(map[int64]bool)
	for i := 0; i < 300; i++ {
		blk, err := a.Alloc(i % 3)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if seen[blk] {
			t.Fatalf("block %d allocated twice", blk)
		}
		if blk < 0 || blk >= 300 {
			t.Fatalf("block %d out of range", blk)
		}
		seen[blk] = true
	}
	if _, err := a.Alloc(0); err != ErrNoSpace {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
}

func TestAllocatorStealing(t *testing.T) {
	a := newAllocator(2, 0, 100)
	// Drain pool 0 completely.
	for i := 0; i < 50; i++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatal(err)
		}
	}
	// Next allocation for worker 0 steals from pool 1.
	if _, err := a.Alloc(0); err != nil {
		t.Fatalf("stealing failed: %v", err)
	}
	sizes := a.PoolSizes()
	if sizes[0] == 0 {
		t.Fatalf("no blocks stolen: %v", sizes)
	}
	if sizes[1] != 25 {
		t.Fatalf("victim kept %d, want 25 (half)", sizes[1])
	}
}

func TestAllocatorFreeReturns(t *testing.T) {
	a := newAllocator(1, 0, 10)
	blk, _ := a.Alloc(0)
	a.Free(0, blk)
	if a.FreeBlocks() != 10 {
		t.Fatal("free did not return block")
	}
}

func TestAllocatorMarkUsed(t *testing.T) {
	a := newAllocator(2, 0, 10)
	a.MarkUsed(5)
	if a.FreeBlocks() != 9 {
		t.Fatal("MarkUsed")
	}
	for i := 0; i < 9; i++ {
		blk, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if blk == 5 {
			t.Fatal("marked block handed out")
		}
	}
}

func TestAllocatorQuickConservation(t *testing.T) {
	// Property: alloc/free sequences never lose or duplicate blocks.
	f := func(ops []uint8) bool {
		a := newAllocator(3, 0, 60)
		held := map[int64]bool{}
		for _, op := range ops {
			w := int(op) % 3
			if op%2 == 0 {
				blk, err := a.Alloc(w)
				if err != nil {
					continue
				}
				if held[blk] {
					return false // double allocation
				}
				held[blk] = true
			} else {
				for blk := range held {
					a.Free(w, blk)
					delete(held, blk)
					break
				}
			}
		}
		return a.FreeBlocks()+int64(len(held)) == 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInodeTableShardingAndList(t *testing.T) {
	tab := newInodeTable(8)
	for _, p := range []string{"a/x", "a/y", "a/sub/z", "b/q"} {
		tab.Put(&inode{Path: p, Blocks: map[int64]int64{}})
	}
	if tab.Count() != 4 {
		t.Fatal("count")
	}
	ls := tab.List("a")
	if len(ls) != 3 || ls[0] != "sub" || ls[1] != "x" {
		t.Fatalf("list %v", ls)
	}
	if _, created := tab.Create(&inode{Path: "a/x"}); created {
		t.Fatal("duplicate create")
	}
	if err := tab.Rename("a/x", "b/x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.Get("a/x"); ok {
		t.Fatal("rename left source")
	}
	if _, ok := tab.Get("b/x"); !ok {
		t.Fatal("rename lost target")
	}
	if err := tab.Rename("ghost", "z"); err == nil {
		t.Fatal("rename of missing succeeded")
	}
	tab.Clear()
	if tab.Count() != 0 {
		t.Fatal("clear")
	}
}

func TestInodeTableForEach(t *testing.T) {
	tab := newInodeTable(4)
	for i := 0; i < 10; i++ {
		tab.Put(&inode{Path: string(rune('a' + i))})
	}
	n := 0
	tab.ForEach(func(*inode) { n++ })
	if n != 10 {
		t.Fatalf("foreach %d", n)
	}
}
