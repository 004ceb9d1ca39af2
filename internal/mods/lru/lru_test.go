package lru_test

import (
	"bytes"
	"fmt"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	_ "labstor/internal/mods/dummy"
	"labstor/internal/mods/lru"
	"labstor/internal/mods/modtest"
)

func mountCache(t *testing.T, h *modtest.Harness, attrs map[string]string) *core.Stack {
	if attrs == nil {
		attrs = map[string]string{}
	}
	return h.Mount(t, "blk::/c",
		modtest.ChainVertex{UUID: "cache", Type: lru.Type, Attrs: attrs},
		modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
}

func cacheInstance(t *testing.T, h *modtest.Harness) *lru.Cache {
	m, err := h.Registry.Get("cache")
	if err != nil {
		t.Fatal(err)
	}
	return m.(*lru.Cache)
}

func TestWriteThroughAndReadHit(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, nil)
	c := cacheInstance(t, h)

	data := bytes.Repeat([]byte{7}, 4096)
	if err := h.Run(t, s, modtest.BlockWriteReq(4096, data)); err != nil {
		t.Fatal(err)
	}
	// Write-through: data reached the device.
	devBuf := make([]byte, 4096)
	h.Dev.ReadAt(devBuf, 4096)
	if !bytes.Equal(devBuf, data) {
		t.Fatal("write-through miss on device")
	}
	// Read hits the cache: no new device read.
	devReadsBefore, _, _, _, _ := h.Dev.Stats()
	r := modtest.BlockReadReq(4096, 4096)
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, data) {
		t.Fatal("cache hit returned wrong data")
	}
	devReadsAfter, _, _, _, _ := h.Dev.Stats()
	if devReadsAfter != devReadsBefore {
		t.Fatal("cache hit still touched the device")
	}
	hits, misses, resident := c.Stats()
	if hits != 1 || misses != 0 || resident != 1 {
		t.Fatalf("stats: %d/%d/%d", hits, misses, resident)
	}
}

func TestReadMissFillsCache(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, nil)
	// Seed the device directly — the cache has never seen this block.
	seed := bytes.Repeat([]byte{9}, 4096)
	h.Dev.WriteAt(seed, 0)
	r := modtest.BlockReadReq(0, 4096)
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, seed) {
		t.Fatal("miss data")
	}
	// Second read is a hit.
	before, _, _, _, _ := h.Dev.Stats()
	r2 := modtest.BlockReadReq(0, 4096)
	h.Run(t, s, r2)
	after, _, _, _, _ := h.Dev.Stats()
	if after != before {
		t.Fatal("second read missed")
	}
}

func TestEvictionBound(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	// 1 MiB cache = 256 pages.
	s := mountCache(t, h, map[string]string{"capacity_mb": "1"})
	c := cacheInstance(t, h)
	buf := make([]byte, 4096)
	for i := 0; i < 400; i++ {
		if err := h.Run(t, s, modtest.BlockWriteReq(int64(i)*4096, buf)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, resident := c.Stats()
	if resident > 256 {
		t.Fatalf("cache exceeded capacity: %d pages", resident)
	}
	// Oldest pages evicted: reading block 0 misses (device read occurs).
	before, _, _, _, _ := h.Dev.Stats()
	h.Run(t, s, modtest.BlockReadReq(0, 4096))
	after, _, _, _, _ := h.Dev.Stats()
	if after == before {
		t.Fatal("evicted page served from cache")
	}
}

func TestLRUOrderingOnAccess(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, map[string]string{"capacity_mb": "1"}) // 256 pages
	c := cacheInstance(t, h)
	buf := make([]byte, 4096)
	// Fill exactly to capacity.
	for i := 0; i < 256; i++ {
		h.Run(t, s, modtest.BlockWriteReq(int64(i)*4096, buf))
	}
	// Touch block 0 so it is MRU, then insert one more.
	h.Run(t, s, modtest.BlockReadReq(0, 4096))
	h.Run(t, s, modtest.BlockWriteReq(256*4096, buf))
	// Block 0 must still be cached (block 1 was the LRU victim).
	before, _, _, _, _ := h.Dev.Stats()
	h.Run(t, s, modtest.BlockReadReq(0, 4096))
	after, _, _, _, _ := h.Dev.Stats()
	if after != before {
		t.Fatal("recently-used page was evicted")
	}
	_, _, resident := c.Stats()
	if resident != 256 {
		t.Fatalf("resident %d", resident)
	}
}

func TestWriteBackAbsorbsAndFlushes(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, map[string]string{"policy": "writeback"})
	c := cacheInstance(t, h)
	data := bytes.Repeat([]byte{3}, 4096)
	if err := h.Run(t, s, modtest.BlockWriteReq(8192, data)); err != nil {
		t.Fatal(err)
	}
	// Absorbed: device still zero.
	devBuf := make([]byte, 4096)
	h.Dev.ReadAt(devBuf, 8192)
	if devBuf[0] != 0 {
		t.Fatal("write-back leaked to device early")
	}
	if c.DirtyPages() != 1 {
		t.Fatalf("dirty %d", c.DirtyPages())
	}
	// Flush pushes it down.
	fl := core.NewRequest(core.OpBlockFlush)
	if err := h.Run(t, s, fl); err != nil {
		t.Fatal(err)
	}
	h.Dev.ReadAt(devBuf, 8192)
	if !bytes.Equal(devBuf, data) {
		t.Fatal("flush did not persist dirty page")
	}
	if c.DirtyPages() != 0 {
		t.Fatal("dirty pages after flush")
	}
}

func TestUnalignedBypass(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, nil)
	c := cacheInstance(t, h)
	// Unaligned write bypasses caching but still lands on the device.
	data := []byte("unaligned")
	if err := h.Run(t, s, modtest.BlockWriteReq(100, data)); err != nil {
		t.Fatal(err)
	}
	_, _, resident := c.Stats()
	if resident != 0 {
		t.Fatal("unaligned write cached")
	}
	r := modtest.BlockReadReq(100, len(data))
	h.Run(t, s, r)
	if !bytes.Equal(r.Data, data) {
		t.Fatal("unaligned round trip")
	}
}

// TestDirectWriteAllocatesNoPage: a DirectIO write of an uncached block
// reaches the device without taking a page, and one of a cached block
// updates that page, so a later read never sees the old bytes.
func TestDirectWriteAllocatesNoPage(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, nil)
	c := cacheInstance(t, h)
	direct := func(off int64, b byte) {
		t.Helper()
		req := modtest.BlockWriteReq(off, bytes.Repeat([]byte{b}, 4096))
		req.DirectIO = true
		if err := h.Run(t, s, req); err != nil {
			t.Fatal(err)
		}
	}

	direct(0, 1)
	devBuf := make([]byte, 4096)
	h.Dev.ReadAt(devBuf, 0)
	if devBuf[0] != 1 {
		t.Fatal("direct write did not reach the device")
	}
	if _, _, resident := c.Stats(); resident != 0 {
		t.Fatalf("direct write of an uncached block left %d resident pages", resident)
	}

	if err := h.Run(t, s, modtest.BlockWriteReq(4096, bytes.Repeat([]byte{2}, 4096))); err != nil {
		t.Fatal(err)
	}
	direct(4096, 3)
	if _, _, resident := c.Stats(); resident != 1 {
		t.Fatalf("resident pages %d, want the one cached block", resident)
	}
	r := modtest.BlockReadReq(4096, 4096)
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if r.Data[0] != 3 {
		t.Fatalf("read of a cached block after a direct write returned %d, want 3", r.Data[0])
	}
}

func TestStateUpdateKeepsCacheWarm(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, nil)
	data := bytes.Repeat([]byte{5}, 4096)
	h.Run(t, s, modtest.BlockWriteReq(0, data))

	// Live-upgrade the cache module.
	next := &lru.Cache{}
	if err := next.Configure(core.Config{UUID: "cache"}, h.Env); err != nil {
		t.Fatal(err)
	}
	if err := h.Registry.Swap("cache", next); err != nil {
		t.Fatal(err)
	}
	// The new instance serves the old instance's pages.
	before, _, _, _, _ := h.Dev.Stats()
	r := modtest.BlockReadReq(0, 4096)
	h.Run(t, s, r)
	after, _, _, _, _ := h.Dev.Stats()
	if after != before {
		t.Fatal("upgrade lost the cache contents")
	}
	if !bytes.Equal(r.Data, data) {
		t.Fatal("warm data mismatch")
	}
}

func TestConfigureValidation(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	c := &lru.Cache{}
	// Nonsense capacities fall back to sane defaults rather than zero.
	if err := c.Configure(core.Config{UUID: "x", Attrs: map[string]string{"capacity_mb": "-3", "page_kb": "0"}}, h.Env); err != nil {
		t.Fatal(err)
	}
	if est := c.EstProcessingTime(core.OpBlockWrite, 4096); est <= 0 {
		t.Fatal("est")
	}
}

func TestMetadataOpsPassThrough(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	// cache -> dummy sink that records the op
	s := h.Mount(t, "blk::/c2",
		modtest.ChainVertex{UUID: "cache2", Type: lru.Type},
		modtest.ChainVertex{UUID: "sink", Type: "labstor.dummy"},
	)
	req := core.NewRequest(core.OpMessage)
	if err := h.Run(t, s, req); err != nil {
		t.Fatal(err)
	}
	if req.Result != 1 {
		t.Fatal("non-data op not forwarded")
	}
	_ = fmt.Sprint()
}
