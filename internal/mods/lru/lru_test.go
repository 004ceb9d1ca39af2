package lru_test

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	_ "labstor/internal/mods/dummy"
	"labstor/internal/mods/lru"
	"labstor/internal/mods/modtest"
	"labstor/internal/vtime"
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

// TestStateUpdateIntoSmallerCache: a live upgrade into a cache with less
// capacity keeps the capacity most recent pages, in their order, and
// releases the rest, so Stats never reports more pages than fit and no
// buffer of a dropped page stays acquired by the cache.
func TestStateUpdateIntoSmallerCache(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, map[string]string{"capacity_mb": "4"}) // 1024 pages
	outstanding := func() int64 {
		st := core.BufArenaStats()
		return st.Gets - st.Releases
	}
	before, doubles := outstanding(), core.HandleDoubleReleases()
	const n = 1024
	for i := 0; i < n; i++ {
		if err := h.Run(t, s, modtest.BlockWriteReq(int64(i)*4096, bytes.Repeat([]byte{byte(i)}, 4096))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, resident := cacheInstance(t, h).Stats(); resident != n {
		t.Fatalf("resident %d before the upgrade, want %d", resident, n)
	}

	next := &lru.Cache{}
	if err := next.Configure(core.Config{UUID: "cache", Attrs: map[string]string{"capacity_mb": "1"}}, h.Env); err != nil {
		t.Fatal(err)
	}
	if err := h.Registry.Swap("cache", next); err != nil {
		t.Fatal(err)
	}
	_, _, resident := next.Stats()
	if resident > 256 {
		t.Fatalf("resident %d after an upgrade into a 256-page cache", resident)
	}
	// The device keeps every written block by reference; discarding them
	// leaves the cache as the only holder, so each buffer still acquired
	// is a resident page's.
	if err := h.Dev.Trim(0, n*4096); err != nil {
		t.Fatal(err)
	}
	if held := outstanding() - before; held != int64(resident) {
		t.Fatalf("%d page buffers still acquired for %d resident pages", held, resident)
	}
	if d := core.HandleDoubleReleases() - doubles; d != 0 {
		t.Fatalf("%d buffer handles released twice", d)
	}
	// The 256 most recent pages stayed and serve their bytes; the oldest
	// went.
	reads, _, _, _, _ := h.Dev.Stats()
	for i := n - 256; i < n; i++ {
		r := modtest.BlockReadReq(int64(i)*4096, 4096)
		if err := h.Run(t, s, r); err != nil {
			t.Fatal(err)
		}
		if r.Data[0] != byte(i) {
			t.Fatalf("block %d read %d after the upgrade", i, r.Data[0])
		}
	}
	if after, _, _, _, _ := h.Dev.Stats(); after != reads {
		t.Fatalf("%d of the 256 most recent pages missed after the upgrade", after-reads)
	}
	h.Run(t, s, modtest.BlockReadReq(0, 4096))
	if after, _, _, _, _ := h.Dev.Stats(); after == reads {
		t.Fatal("the oldest page survived the upgrade into a smaller cache")
	}
}

func TestConfigureValidation(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	// Nonsense capacities fall back to sane defaults rather than zero (or
	// one page): blocks written through the cache still hit when read back.
	s := mountCache(t, h, map[string]string{"capacity_mb": "-3"})
	c := cacheInstance(t, h)
	const n = 4
	for i := 0; i < n; i++ {
		if err := h.Run(t, s, modtest.BlockWriteReq(int64(i)*4096, bytes.Repeat([]byte{byte(i + 1)}, 4096))); err != nil {
			t.Fatal(err)
		}
	}
	reads, _, _, _, _ := h.Dev.Stats()
	for i := 0; i < n; i++ {
		r := modtest.BlockReadReq(int64(i)*4096, 4096)
		if err := h.Run(t, s, r); err != nil {
			t.Fatal(err)
		}
		if r.Data[0] != byte(i+1) {
			t.Fatalf("block %d read %d after its write", i, r.Data[0])
		}
	}
	if after, _, _, _, _ := h.Dev.Stats(); after != reads {
		t.Fatalf("%d of %d reads after their writes missed the cache", after-reads, n)
	}
	if hits, misses, resident := c.Stats(); hits != n || misses != 0 || resident != n {
		t.Fatalf("stats: %d/%d/%d", hits, misses, resident)
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

// --- reference model --------------------------------------------------------

// refType registers refCache for the reference-model test.
const refType = "labstor.lru_ref"

func init() {
	core.RegisterType(refType, func() core.Module { return &refCache{} })
}

// refCache is the page cache as it was before the slot table: one *page
// per block, a container/list for recency and a map of pointers. It is
// the model TestCacheMatchesReferenceModel holds the slot table to; its
// decisions, charges and copies are the cache's, its copy-site counters
// are left out.
type refCache struct {
	core.Base

	mu       sync.Mutex
	pages    map[int64]*refPage
	order    *list.List // front = most recent
	capacity int
	policy   string

	hits   int64
	misses int64
}

type refPage struct {
	off   int64
	h     core.BufHandle
	dirty bool
	elem  *list.Element
}

func (p *refPage) release() {
	p.h.Release()
	p.h = core.BufHandle{}
}

func (c *refCache) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: refType, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIBlock}
}

func (c *refCache) Configure(cfg core.Config, env *core.Env) error {
	if err := c.Base.Configure(cfg, env); err != nil {
		return err
	}
	capMB, _ := strconv.Atoi(cfg.Attr("capacity_mb", "64"))
	if capMB <= 0 {
		capMB = 64
	}
	c.capacity = (capMB << 20) / device.BlockSize
	c.policy = cfg.Attr("policy", "writethrough")
	c.pages = make(map[int64]*refPage)
	c.order = list.New()
	return nil
}

func (c *refCache) Process(e *core.Exec, req *core.Request) error {
	switch req.Op {
	case core.OpBlockRead, core.OpRead:
		return c.processRead(e, req)
	case core.OpBlockWrite, core.OpWrite, core.OpAppend:
		return c.processWrite(e, req)
	case core.OpBlockFlush:
		return c.processFlush(e, req)
	default:
		return e.Next(req)
	}
}

func (c *refCache) processRead(e *core.Exec, req *core.Request) error {
	req.Charge("cache", e.Model.LRUCacheOp)
	if req.Size == device.BlockSize && req.Offset%device.BlockSize == 0 {
		c.mu.Lock()
		if p, ok := c.pages[req.Offset]; ok {
			c.order.MoveToFront(p.elem)
			c.hits++
			if req.Data == nil {
				req.ValueH = p.h.Retain()
				c.mu.Unlock()
				req.Value = req.ValueH.Bytes()
				req.Data = req.Value
				req.Result = device.BlockSize
				return nil
			}
			copy(req.Data, p.h.Bytes())
			c.mu.Unlock()
			req.Charge("cache", e.Model.Copy(req.Size))
			req.Result = device.BlockSize
			return nil
		}
		c.misses++
		c.mu.Unlock()
		if err := e.Next(req); err != nil {
			return err
		}
		c.insertFill(e, req)
		return nil
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return e.Next(req)
}

func (c *refCache) insertFill(e *core.Exec, req *core.Request) {
	var h core.BufHandle
	switch {
	case req.Buf.Valid() && req.Buf.Len() == device.BlockSize:
		h = req.Buf.Retain()
	case req.ValueH.Valid() && req.ValueH.Len() == device.BlockSize:
		h = req.ValueH.Retain()
	}
	if h.Valid() {
		c.insertPage(&refPage{off: req.Offset, h: h})
		return
	}
	data := req.Data
	if data == nil {
		data = req.Value
	}
	if data == nil {
		return
	}
	req.Charge("cache", e.Model.Copy(len(data)))
	h = core.AcquireHandle(len(data))
	copy(h.Bytes(), data)
	c.insertPage(&refPage{off: req.Offset, h: h})
}

func (c *refCache) processWrite(e *core.Exec, req *core.Request) error {
	aligned := req.Size == device.BlockSize && req.Offset%device.BlockSize == 0
	if aligned && req.DirectIO && !c.resident(req.Offset) {
		req.Charge("cache", e.Model.LRUCacheOp)
		return e.Next(req)
	}
	var h core.BufHandle
	if aligned && req.Buf.Valid() && req.Buf.Len() == device.BlockSize {
		req.Charge("cache", e.Model.LRUCacheOp)
		h = req.Buf.Retain()
	} else {
		req.Charge("cache", e.Model.LRUCacheOp+e.Model.Copy(req.Size))
		if aligned {
			h = core.AcquireHandle(len(req.Data))
			copy(h.Bytes(), req.Data)
		}
	}
	if h.Valid() {
		c.insertPage(&refPage{off: req.Offset, h: h, dirty: c.policy == "writeback"})
		if c.policy == "writeback" {
			req.Result = int64(req.Size)
			return nil
		}
	}
	return e.Next(req)
}

func (c *refCache) processFlush(e *core.Exec, req *core.Request) error {
	req.Charge("cache", e.Model.LRUCacheOp)
	if c.policy != "writeback" {
		return e.Next(req)
	}
	c.mu.Lock()
	var dirty []refPage
	for _, p := range c.pages {
		if p.dirty {
			p.dirty = false
			dirty = append(dirty, refPage{off: p.off, h: p.h.Retain()})
		}
	}
	c.mu.Unlock()
	for _, fp := range dirty {
		child := req.Child(core.OpBlockWrite)
		child.Offset = fp.off
		child.Size = fp.h.Len()
		child.Data = fp.h.Bytes()
		_, err := e.SpawnNext(req, child)
		fp.h.Release()
		if err != nil {
			return err
		}
	}
	return e.Next(req)
}

func (c *refCache) insertPage(np *refPage) {
	c.mu.Lock()
	if p, ok := c.pages[np.off]; ok {
		old := *p
		p.h = np.h
		p.dirty = p.dirty || np.dirty
		c.order.MoveToFront(p.elem)
		c.mu.Unlock()
		old.release()
		return
	}
	np.elem = c.order.PushFront(np)
	c.pages[np.off] = np
	var evicted []*refPage
	for len(c.pages) > c.capacity {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		victim := tail.Value.(*refPage)
		c.order.Remove(tail)
		delete(c.pages, victim.off)
		evicted = append(evicted, victim)
	}
	c.mu.Unlock()
	for _, p := range evicted {
		p.release()
	}
}

func (c *refCache) resident(off int64) bool {
	c.mu.Lock()
	_, ok := c.pages[off]
	c.mu.Unlock()
	return ok
}

func (c *refCache) Stats() (hits, misses int64, resident int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.pages)
}

// Order returns the resident block offsets, most recent first, and the
// offsets of the dirty ones in the same order.
func (c *refCache) Order() (resident, dirty []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.order.Front(); e != nil; e = e.Next() {
		p := e.Value.(*refPage)
		resident = append(resident, p.off)
		if p.dirty {
			dirty = append(dirty, p.off)
		}
	}
	return resident, dirty
}

// SetCapacity sets the model's capacity in pages, as Cache.SetCapacity
// does the cache's.
func (c *refCache) SetCapacity(pages int) {
	c.mu.Lock()
	c.capacity = pages
	c.mu.Unlock()
}

// cacheUnderTest is what the reference-model test reads of either cache.
type cacheUnderTest interface {
	Stats() (hits, misses int64, resident int)
	Order() (resident, dirty []int64)
	SetCapacity(pages int)
}

// TestCacheMatchesReferenceModel drives the slot-table cache and refCache,
// each over its own device, with one seeded op sequence: aligned and
// unaligned block reads (into a caller buffer and zero-copy) and writes,
// DirectIO writes and flushes, under both policies at capacities of 1, 2,
// 7 and 64 pages. After every op both must agree on hits, misses, the
// resident offsets in LRU order and the dirty pages, and every read must
// return the same bytes. Under write-through, where a flush writes nothing
// back, the two requests' virtual clocks must agree too: the cache's
// charges did not move. (A write-back flush writes pages back in map order
// in the model, so the device sees them in another order.)
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, policy := range []string{"writethrough", "writeback"} {
		for _, pages := range []int{1, 2, 7, 64} {
			t.Run(fmt.Sprintf("%s/%d", policy, pages), func(t *testing.T) {
				checkAgainstModel(t, policy, pages)
			})
		}
	}
}

func checkAgainstModel(t *testing.T, policy string, pages int) {
	const pageSize = device.BlockSize
	blocks := 3*pages + 3 // offsets span three capacities and change
	attrs := map[string]string{"policy": policy}
	mount := func(typ string) (*modtest.Harness, *core.Stack, cacheUnderTest) {
		h := modtest.New(t, device.NVMe, int64(blocks+1)*int64(pageSize))
		s := h.Mount(t, "blk::/c",
			modtest.ChainVertex{UUID: "cache", Type: typ, Attrs: attrs},
			modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
		)
		m, err := h.Registry.Get("cache")
		if err != nil {
			t.Fatal(err)
		}
		c := m.(cacheUnderTest)
		c.SetCapacity(pages)
		return h, s, c
	}
	hs, ss, cs := mount(lru.Type)
	hr, sr, cr := mount(refType)

	rng := rand.New(rand.NewSource(int64(pages)))
	var clock vtime.Time
	ops := 300 + 40*blocks
	for i := 0; i < ops; i++ {
		off := int64(rng.Intn(blocks)) * int64(pageSize)
		size := pageSize
		if rng.Intn(8) == 0 { // unaligned: off the page grid, or short
			if rng.Intn(2) == 0 {
				off += int64(1 + rng.Intn(pageSize-1))
			} else {
				size = 1 + rng.Intn(pageSize-1)
			}
		}
		var op core.Op
		var data []byte
		direct, view := false, false
		switch k := rng.Intn(20); {
		case k < 9:
			op = core.OpBlockRead
			view = rng.Intn(2) == 0 && size == pageSize
		case k < 18:
			op = core.OpBlockWrite
			data = bytes.Repeat([]byte{byte(rng.Intn(256))}, size)
			if size >= 8 {
				binary.LittleEndian.PutUint64(data, uint64(i)) // unique per write
			}
			direct = rng.Intn(4) == 0
		default:
			op = core.OpBlockFlush
		}
		clock = clock.Add(vtime.Microsecond)
		build := func() *core.Request {
			r := core.NewRequest(op)
			r.Arrival, r.Clock = clock, clock
			if op == core.OpBlockFlush {
				return r
			}
			r.Offset, r.Size, r.DirectIO = off, size, direct
			switch {
			case data != nil:
				r.Data = data
			case !view:
				r.Data = make([]byte, size)
			}
			return r
		}
		rs, rr := build(), build()
		errS, errR := hs.Run(t, ss, rs), hr.Run(t, sr, rr)
		if (errS == nil) != (errR == nil) {
			t.Fatalf("op %d %s off=%d size=%d: error %v, model %v", i, op, off, size, errS, errR)
		}
		if op == core.OpBlockRead {
			got, want := rs.Data, rr.Data
			if rs.Value != nil {
				got = rs.Value
			}
			if rr.Value != nil {
				want = rr.Value
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d read off=%d size=%d: bytes differ from the model's", i, off, size)
			}
		}
		if policy == "writethrough" && (rs.Clock != rr.Clock || rs.CPUTime != rr.CPUTime) {
			t.Fatalf("op %d %s off=%d: clock %d cpu %d, model %d %d", i, op, off, rs.Clock, rs.CPUTime, rr.Clock, rr.CPUTime)
		}
		rs.Release()
		rr.Release()
		hS, mS, nS := cs.Stats()
		hR, mR, nR := cr.Stats()
		if hS != hR || mS != mR || nS != nR {
			t.Fatalf("op %d %s off=%d: hits/misses/resident %d/%d/%d, model %d/%d/%d", i, op, off, hS, mS, nS, hR, mR, nR)
		}
		resS, dirtyS := cs.Order()
		resR, dirtyR := cr.Order()
		if !slices.Equal(resS, resR) {
			t.Fatalf("op %d %s off=%d: LRU order %v, model %v", i, op, off, resS, resR)
		}
		if !slices.Equal(dirtyS, dirtyR) {
			t.Fatalf("op %d %s off=%d: dirty pages %v, model %v", i, op, off, dirtyS, dirtyR)
		}
	}
	hits, misses, _ := cs.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("sequence exercised %d hits and %d misses; it must exercise both", hits, misses)
	}
}
