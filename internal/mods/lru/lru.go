// Package lru implements the LRU page-cache LabMod: a block-level
// write-through (or write-back) cache with least-recently-used eviction.
// It is the "page cache" stage of the paper's Lab-All stack, whose data
// copies account for ~17% of a 4KB request's time in the Fig. 4(a) anatomy.
//
// The cache follows the one ownership rule (DESIGN.md §13): a Buf handle
// may be retained, a bare Data slice is borrowed and copied. A cache miss
// whose fill landed in a handle is retained by reference instead of
// copied, and a hit with no caller destination hands out a retained view
// of the page. LabKVS reads every one-block value that way, so a cached
// get's value is the page itself, shared by the cache and the request
// until the request is released: holders read it and never write it, and
// the serve plane writes it to the socket in place. A miss into a bare
// destination slice reads the block with no destination, so the page is
// the device's stored block by reference, and copies it once into the
// destination. The only read-path copies are those into a caller's
// destination: hits (multi-block gets, LabFS reads) and such fills. A
// page-sized write payload handle (a put over the wire) becomes the page
// by reference; a bare payload slice may be rewritten the moment the
// request completes, so it is copied, but into a handle-backed page, so
// later reads (and pushdown scans) of written data get zero-copy handouts
// either way. A write-through hands the page down as the write's Buf, and
// a flush hands down each dirty page, so a device that DMAs by reference
// keeps the page itself and copies nothing.
//
// The pages live in a slot table: a []page that grows to the capacity
// and then never again. The recency list links slots by int32 index and a
// pointer-free map[int64]int32 finds a block's slot, so neither holds a
// pointer for the GC to trace. At capacity an insert takes the LRU tail's
// slot in place, and a cache in steady state allocates nothing.
package lru

import (
	"fmt"
	"sync"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/telemetry"
)

// Type is the registered module type name.
const Type = "labstor.lru"

func init() {
	core.RegisterType(Type, func() core.Module { return &Cache{} })
}

// Remaining copy sites on the cache paths (telemetry copies/op audit).
var (
	copyHitOut      = telemetry.CopySite("lru.hit_copy_out")
	copyFill        = telemetry.CopySite("lru.fill_copy")
	copyWriteInsert = telemetry.CopySite("lru.write_insert")
)

// page is one slot of the table: a cached block, held as one reference to
// an arena handle (the zero page holds nothing). prev and next link the
// slot into the recency list.
type page struct {
	off        int64
	h          core.BufHandle
	dirty      bool
	prev, next int32
}

// noSlot ends the recency list.
const noSlot = -1

// Cache is the LRU page-cache module instance.
type Cache struct {
	core.Base

	mu       sync.Mutex
	slots    []page          // slot table, at most capacity long
	index    map[int64]int32 // block offset -> slot
	head     int32           // most recent slot, noSlot when empty
	tail     int32           // least recent slot, the next victim
	capacity int             // max pages
	policy   string          // "writethrough" | "writeback"

	hits   int64
	misses int64
}

// Info describes the module.
func (c *Cache) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: Type, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIBlock}
}

// Configure sets capacity (attr "capacity_mb", default 64) and write policy
// (attr "policy"). A page is one device block (device.BlockSize), so a
// cached page is the block the device stores.
func (c *Cache) Configure(cfg core.Config, env *core.Env) error {
	if err := c.Base.Configure(cfg, env); err != nil {
		return err
	}
	capMB, err := cfg.Int("capacity_mb", 64)
	if err != nil {
		return err
	}
	if capMB <= 0 {
		capMB = 64
	}
	c.capacity = (capMB << 20) / device.BlockSize
	c.policy = cfg.Attr("policy", "writethrough")
	c.slots = nil
	c.index = make(map[int64]int32)
	c.head, c.tail = noSlot, noSlot
	return nil
}

// Process serves block reads from cache when possible and keeps the cache
// coherent on writes.
func (c *Cache) Process(e *core.Exec, req *core.Request) error {
	switch req.Op {
	case core.OpBlockRead, core.OpRead:
		return c.processRead(e, req)
	case core.OpBlockWrite, core.OpWrite, core.OpAppend:
		return c.processWrite(e, req)
	case core.OpBlockFlush:
		return c.processFlush(e, req)
	default:
		// Metadata and other ops pass through untouched.
		return e.Next(req)
	}
}

func (c *Cache) processRead(e *core.Exec, req *core.Request) error {
	// Lookup + LRU maintenance; data-movement charges land on the paths
	// that actually move bytes.
	req.Charge("cache", e.Model.LRUCacheOp)
	if req.Size == device.BlockSize && req.Offset%device.BlockSize == 0 {
		c.mu.Lock()
		if i, ok := c.index[req.Offset]; ok {
			c.touch(i)
			p := &c.slots[i]
			c.hits++
			if req.Data == nil {
				// Zero-copy hit: hand the caller a retained view of the
				// page. The refcount keeps the bytes stable even if the
				// page is replaced or evicted before the caller releases.
				req.ValueH = p.h.Retain()
				c.mu.Unlock()
				req.Value = req.ValueH.Bytes()
				req.Data = req.Value
				req.Result = device.BlockSize
				return nil
			}
			// Copy out under the lock: a replacement or eviction releases
			// the page's reference, so its bytes are read only while the
			// slot holds it.
			copy(req.Data, p.h.Bytes())
			c.mu.Unlock()
			copyHitOut.Add(device.BlockSize)
			req.Charge("cache", e.Model.Copy(req.Size))
			req.Result = device.BlockSize
			return nil
		}
		c.misses++
		c.mu.Unlock()
		if req.Data != nil && !req.Buf.Valid() {
			return c.fillByRef(e, req)
		}
		if err := e.Next(req); err != nil {
			return err
		}
		c.insertFill(req)
		return nil
	}
	// Unaligned access: bypass the cache.
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return e.Next(req)
}

// fillByRef serves a miss into a bare destination slice. The block is read
// with no destination, so a driver that DMAs by reference answers with a
// retained view of its stored block; the page keeps that handle, and the
// one copy is into the caller's slice (lru.fill_copy).
func (c *Cache) fillByRef(e *core.Exec, req *core.Request) error {
	dst := req.Data
	req.Data = nil
	err := e.Next(req)
	h := req.TakeValue()
	req.Data = dst
	if err == nil && h.Len() != device.BlockSize {
		err = fmt.Errorf("lru: block read at %d returned no %d-byte result handle", req.Offset, device.BlockSize)
	}
	if err != nil {
		h.Release()
		return err
	}
	// Copy out before the page is published: a replacement or eviction
	// may release the page's reference as soon as it is.
	copyFill.Add(copy(dst, h.Bytes()))
	req.Charge("cache", e.Model.Copy(len(dst)))
	c.insertPage(&page{off: req.Offset, h: h})
	return nil
}

// insertFill caches the result of a miss that had no bare destination:
// the request's own result handle, or a destination view cut by a parent
// request, is retained in place — no copy.
func (c *Cache) insertFill(req *core.Request) {
	h := req.Buf
	if !h.Valid() {
		h = req.ValueH
	}
	if h.Valid() && h.Len() == device.BlockSize {
		c.insertPage(&page{off: req.Offset, h: h.Retain()})
	}
}

func (c *Cache) processWrite(e *core.Exec, req *core.Request) error {
	aligned := req.Size == device.BlockSize && req.Offset%device.BlockSize == 0
	if aligned && req.DirectIO && !c.resident(req.Offset) {
		// No page is allocated for a direct write, so nothing is copied. A
		// resident page is updated below instead, keeping it coherent.
		req.Charge("cache", e.Model.LRUCacheOp)
		return e.Next(req)
	}
	// Every page is handle-backed, so later Data==nil reads get it as a
	// retained view (get-after-put and pushdown scans over warm data are
	// then zero-copy). A page-sized payload handle becomes the page by
	// reference; a bare Data slice is borrowed, so the cache takes its own
	// copy (DESIGN.md §13 — a Buf handle may be retained, Data may not).
	var h core.BufHandle
	if aligned && req.Buf.Valid() && req.Buf.Len() == device.BlockSize {
		req.Charge("cache", e.Model.LRUCacheOp)
		h = req.Buf.Retain()
	} else {
		req.Charge("cache", e.Model.LRUCacheOp+e.Model.Copy(req.Size))
		if !aligned {
			return e.Next(req)
		}
		copyWriteInsert.Add(req.Size)
		h = core.AcquireHandle(len(req.Data))
		copy(h.Bytes(), req.Data)
	}
	if c.policy == "writeback" {
		c.insertPage(&page{off: req.Offset, h: h, dirty: true})
		req.Result = int64(req.Size)
		return nil // absorbed; OpBlockFlush writes it back
	}
	// Write-through: the page goes down as the request's Buf, so a driver
	// that DMAs by reference keeps the page itself, and a bare payload's
	// write costs only the copy above. The pin keeps the page alive until
	// the write is done: once inserted, a concurrent replacement or
	// eviction may drop the cache's reference.
	pin := h.Retain()
	c.insertPage(&page{off: req.Offset, h: h})
	data, buf := req.Data, req.Buf
	req.Data, req.Buf = pin.Bytes(), pin
	err := e.Next(req)
	req.Data, req.Buf = data, buf
	pin.Release()
	return err
}

func (c *Cache) processFlush(e *core.Exec, req *core.Request) error {
	req.Charge("cache", e.Model.LRUCacheOp)
	if c.policy != "writeback" {
		return e.Next(req)
	}
	// Write back every dirty page downstream. Each is pinned by retaining
	// it — a concurrent replacement releases its own reference but cannot
	// recycle ours.
	c.mu.Lock()
	var dirty []page
	for i := range c.slots {
		if p := &c.slots[i]; p.dirty {
			p.dirty = false
			dirty = append(dirty, page{off: p.off, h: p.h.Retain()})
		}
	}
	c.mu.Unlock()
	for _, fp := range dirty {
		child := req.Child(core.OpBlockWrite)
		child.Offset = fp.off
		child.Size = fp.h.Len()
		child.Data, child.Buf = fp.h.Bytes(), fp.h // the device may keep the page by reference
		_, err := e.SpawnNext(req, child)
		fp.h.Release()
		if err != nil {
			return err
		}
	}
	return e.Next(req)
}

// insertPage adds/updates a page and evicts the LRU page beyond capacity.
// Evicted dirty pages are lost unless flushed first — writeback callers
// must flush; the functional tests cover this contract. The page's handle
// reference is owned by the cache from here on, and released on
// replacement or eviction.
func (c *Cache) insertPage(np *page) {
	c.mu.Lock()
	if i, ok := c.index[np.off]; ok {
		p := &c.slots[i]
		old := p.h
		p.h = np.h
		p.dirty = p.dirty || np.dirty
		c.touch(i)
		c.mu.Unlock()
		old.Release()
		return
	}
	var victim page
	var i int32
	if len(c.slots) < c.capacity {
		i = int32(len(c.slots))
		c.slots = append(c.slots, page{})
	} else {
		// Full: the LRU tail's slot takes the new page in place.
		i = c.tail
		victim = c.slots[i]
		c.unlink(i)
		delete(c.index, victim.off)
	}
	c.slots[i] = *np
	c.pushFront(i)
	c.index[np.off] = i
	c.mu.Unlock()
	victim.h.Release()
}

// unlink takes slot i out of the recency list. Caller holds c.mu.
func (c *Cache) unlink(i int32) {
	p := &c.slots[i]
	if p.prev == noSlot {
		c.head = p.next
	} else {
		c.slots[p.prev].next = p.next
	}
	if p.next == noSlot {
		c.tail = p.prev
	} else {
		c.slots[p.next].prev = p.prev
	}
}

// pushFront links slot i in as the most recent. Caller holds c.mu.
func (c *Cache) pushFront(i int32) {
	p := &c.slots[i]
	p.prev, p.next = noSlot, c.head
	if c.head == noSlot {
		c.tail = i
	} else {
		c.slots[c.head].prev = i
	}
	c.head = i
}

// touch makes slot i the most recent. Caller holds c.mu.
func (c *Cache) touch(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// resident reports whether the block at off is cached.
func (c *Cache) resident(off int64) bool {
	c.mu.Lock()
	_, ok := c.index[off]
	c.mu.Unlock()
	return ok
}

// Stats returns hit/miss counters and the resident page count.
func (c *Cache) Stats() (hits, misses int64, resident int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.index)
}

// DirtyPages returns the number of dirty (unflushed) pages.
func (c *Cache) DirtyPages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.slots {
		if c.slots[i].dirty {
			n++
		}
	}
	return n
}

// StateUpdate migrates the cached pages from the previous instance (live
// upgrade keeps the cache warm). The page references transfer to the new
// instance for the capacity most recent pages, in their recency order; a
// smaller cache releases the rest. The old instance is discarded without
// releasing.
func (c *Cache) StateUpdate(prev core.Module) error {
	old, ok := prev.(*Cache)
	if !ok {
		return nil
	}
	old.mu.Lock()
	defer old.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for j := old.head; j != noSlot; j = old.slots[j].next {
		p := old.slots[j]
		if len(c.slots) == c.capacity {
			p.h.Release()
			continue
		}
		// Appending in recency order links each page behind the last.
		i := int32(len(c.slots))
		p.prev, p.next = c.tail, noSlot
		c.slots = append(c.slots, p)
		if c.tail == noSlot {
			c.head = i
		} else {
			c.slots[c.tail].next = i
		}
		c.tail = i
		c.index[p.off] = i
	}
	c.hits, c.misses = old.hits, old.misses
	return nil
}
