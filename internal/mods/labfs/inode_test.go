package labfs

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInodeShardHash checks the inlined FNV-1a shard hash spreads paths and
// is stable for a given path (Get must find what Put stored).
func TestInodeShardHash(t *testing.T) {
	tbl := newInodeTable(16)
	hit := make(map[int]bool)
	for i := 0; i < 256; i++ {
		p := fmt.Sprintf("/dir-%d/file-%d", i%7, i)
		if tbl.shard(p) != tbl.shard(p) {
			t.Fatalf("shard(%q) is not stable", p)
		}
		hit[tbl.shardIndex(p)] = true
	}
	if len(hit) < 8 {
		t.Fatalf("256 paths landed on only %d/16 shards", len(hit))
	}
}

// TestInodeRenameAtomicVisibility races concurrent readers against a rename
// from a to b. Readers check the source first, then the destination: with
// the inode moving a -> b exactly once, a reader that misses a (the rename
// already removed it) must hit b — the Delete-then-Put implementation
// exposes a window where both lookups miss. Repeated over many trials so
// the race detector and the invariant both get real interleavings.
func TestInodeRenameAtomicVisibility(t *testing.T) {
	tbl := newInodeTable(16)
	trials := 400
	if testing.Short() {
		trials = 50
	}
	for trial := 0; trial < trials; trial++ {
		a := fmt.Sprintf("/a/f%d", trial)
		b := fmt.Sprintf("/b/f%d", trial)
		tbl.Put(&inode{Path: a})
		var ready atomic.Int32
		var renamed atomic.Bool
		var gap atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ready.Add(1)
				// Poll for the whole rename window (plus one final pass so a
				// gap opened just before the flag flip is still observed).
				for {
					fin := renamed.Load()
					_, okA := tbl.Get(a)
					runtime.Gosched() // widen the observation window
					_, okB := tbl.Get(b)
					if !okA && !okB {
						gap.Store(true)
						return
					}
					if fin {
						return
					}
				}
			}()
		}
		// Don't rename until both readers are actually polling, so the
		// rename's critical window is guaranteed to be observed.
		for ready.Load() < 2 {
			runtime.Gosched()
		}
		if err := tbl.Rename(a, b); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		renamed.Store(true)
		wg.Wait()
		if gap.Load() {
			t.Fatalf("trial %d: inode invisible under both %q and %q (rename not atomic)", trial, a, b)
		}
		if _, ok := tbl.Delete(b); !ok {
			t.Fatalf("trial %d: inode missing at %q after rename", trial, b)
		}
	}
	if tbl.Count() != 0 {
		t.Fatalf("Count = %d, want 0", tbl.Count())
	}
}

// TestInodeRenameSameShard covers the single-lock fast path.
func TestInodeRenameSameShard(t *testing.T) {
	tbl := newInodeTable(1) // one shard: from/to always collide
	tbl.Put(&inode{Path: "/x"})
	if err := tbl.Rename("/x", "/y"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get("/x"); ok {
		t.Fatal("/x still visible after rename")
	}
	ino, ok := tbl.Get("/y")
	if !ok || ino.Path != "/y" {
		t.Fatalf("get /y: %v %v", ino, ok)
	}
	if err := tbl.Rename("/nope", "/z"); err == nil {
		t.Fatal("rename of missing path must fail")
	}
}

// TestInodeRenameConcurrentDistinct runs many concurrent renames of distinct
// files across shards under -race: all must land, none may be lost.
func TestInodeRenameConcurrentDistinct(t *testing.T) {
	tbl := newInodeTable(8)
	const n = 64
	for i := 0; i < n; i++ {
		tbl.Put(&inode{Path: fmt.Sprintf("/src/f%d", i)})
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := tbl.Rename(fmt.Sprintf("/src/f%d", i), fmt.Sprintf("/dst/f%d", i)); err != nil {
				t.Errorf("rename f%d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if tbl.Count() != n {
		t.Fatalf("Count = %d, want %d", tbl.Count(), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := tbl.Get(fmt.Sprintf("/dst/f%d", i)); !ok {
			t.Fatalf("/dst/f%d missing", i)
		}
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
