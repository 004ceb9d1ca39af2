//go:build !race

package lru_test

import (
	"bytes"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/modtest"
)

// Allocation contract of the cache. Not built under the race detector,
// which makes sync.Pool drop a share of its Puts.

// TestWriteInsertAtCapacityAllocs: a write of a new block into a full
// cache takes the LRU tail's slot in place and recycles the evicted page's
// buffer, so it allocates nothing.
func TestWriteInsertAtCapacityAllocs(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, map[string]string{"capacity_mb": "1"}) // 256 pages
	const blocks = 512                                           // twice the capacity: every write evicts
	data := bytes.Repeat([]byte{1}, 4096)
	req := core.NewRequest(core.OpNop)
	next := 0
	write := func() {
		*req = core.Request{Op: core.OpBlockWrite, Offset: int64(next%blocks) * 4096, Size: len(data), Data: data}
		next++
		if err := h.Exec.Submit(s, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*blocks; i++ {
		write()
	}
	if n := testing.AllocsPerRun(500, write); n != 0 {
		t.Errorf("write insert at capacity allocates %v objects, want 0", n)
	}
	if _, _, resident := cacheInstance(t, h).Stats(); resident != 256 {
		t.Fatalf("resident %d, want the 256 the cache holds", resident)
	}
}
