// Package lru implements the LRU page-cache LabMod: a block-level
// write-through (or write-back) cache with least-recently-used eviction.
// It is the "page cache" stage of the paper's Lab-All stack, whose data
// copies account for ~17% of a 4KB request's time in the Fig. 4(a) anatomy.
//
// The read path is zero-copy (DESIGN.md §13): a cache miss whose fill
// landed in a stack-owned buffer is retained by reference instead of
// copied, and a hit with no caller destination hands out a retained view
// of the page. LabKVS reads every one-block value that way, so a cached
// get's value is the page itself, shared by the cache and the request
// until the request is released: holders read it and never write it, and
// the serve plane writes it to the socket in place. The only remaining
// read-path copies are hit-into-caller-buffer (the caller chose its
// destination: multi-block gets, LabFS reads) and fills from borrowed
// client memory, which the cache may not retain. Writes always copy —
// the payload is the client's registered buffer, and it may be rewritten
// the moment the request completes — but the copy lands in a
// handle-backed page, so later reads (and pushdown scans) of
// write-inserted data still get zero-copy handouts.
//
// The pages live in a slot table: a []page that grows to the capacity
// and then never again. The recency list links slots by int32 index and a
// pointer-free map[int64]int32 finds a block's slot, so neither holds a
// pointer for the GC to trace. At capacity an insert takes the LRU tail's
// slot in place, and a cache in steady state allocates nothing.
package lru

import (
	"strconv"
	"sync"

	"labstor/internal/core"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
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
	copyFlushSnap   = telemetry.CopySite("lru.flush_snapshot")
)

// page is one slot of the table: a cached block. Handle-backed pages
// (h.Valid()) hold a retained reference into the zero-copy arena; legacy
// pages own an arena buffer outright. prev and next link the slot into the
// recency list.
type page struct {
	off        int64
	data       []byte
	h          core.BufHandle
	dirty      bool
	prev, next int32
}

// noSlot ends the recency list.
const noSlot = -1

// release returns the page's buffer to wherever it came from. The zero
// page holds nothing and releases nothing.
func (p page) release() {
	if p.h.Valid() {
		p.h.Release()
		return
	}
	core.ReleaseBuf(p.data)
}

// Cache is the LRU page-cache module instance.
type Cache struct {
	core.Base

	mu       sync.Mutex
	slots    []page          // slot table, at most capacity long
	index    map[int64]int32 // block offset -> slot
	head     int32           // most recent slot, noSlot when empty
	tail     int32           // least recent slot, the next victim
	capacity int             // max pages
	pageSize int
	policy   string // "writethrough" | "writeback"

	hits   int64
	misses int64
}

// Info describes the module.
func (c *Cache) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: Type, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIBlock}
}

// Configure sets capacity (attr "capacity_mb", default 64), page size
// (attr "page_kb", default 4) and write policy (attr "policy").
func (c *Cache) Configure(cfg core.Config, env *core.Env) error {
	if err := c.Base.Configure(cfg, env); err != nil {
		return err
	}
	capMB, _ := strconv.Atoi(cfg.Attr("capacity_mb", "64"))
	if capMB <= 0 {
		capMB = 64
	}
	pageKB, _ := strconv.Atoi(cfg.Attr("page_kb", "4"))
	if pageKB <= 0 {
		pageKB = 4
	}
	c.pageSize = pageKB << 10
	c.capacity = (capMB << 20) / c.pageSize
	if c.capacity < 1 {
		c.capacity = 1
	}
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
	if req.Size == c.pageSize && req.Offset%int64(c.pageSize) == 0 {
		c.mu.Lock()
		if i, ok := c.index[req.Offset]; ok {
			c.touch(i)
			p := &c.slots[i]
			c.hits++
			if req.Data == nil && p.h.Valid() {
				// Zero-copy hit: hand the caller a retained view of the
				// page. The refcount keeps the bytes stable even if the
				// page is replaced or evicted before the caller releases.
				req.ValueH = p.h.Retain()
				c.mu.Unlock()
				req.Value = req.ValueH.Bytes()
				req.Data = req.Value
				req.Result = int64(c.pageSize)
				return nil
			}
			if req.Data == nil {
				req.Data = req.CompleteValue(c.pageSize)
			}
			// Copy out under the lock: legacy page buffers are recycled
			// through the arena on eviction/replacement, so p.data must
			// not be read after the lock is dropped.
			copy(req.Data, p.data)
			c.mu.Unlock()
			copyHitOut.Add(c.pageSize)
			req.Charge("cache", e.Model.Copy(req.Size))
			req.Result = int64(c.pageSize)
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
	// Unaligned access: bypass the cache.
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return e.Next(req)
}

// insertFill caches the result of a read miss. Stack-owned fills (the
// request's own result handle, or a stack-owned destination view cut by a
// parent request) are retained in place — no copy; borrowed client
// destinations are copied, because the client may rewrite its registered
// buffer the moment the request completes.
func (c *Cache) insertFill(e *core.Exec, req *core.Request) {
	var h core.BufHandle
	switch {
	case req.Buf.Valid() && req.Buf.Owned() && req.Buf.Len() == c.pageSize:
		h = req.Buf.Retain()
	case req.ValueH.Valid() && req.ValueH.Len() == c.pageSize:
		h = req.ValueH.Retain()
	}
	if h.Valid() {
		c.insertPage(&page{off: req.Offset, data: h.Bytes(), h: h})
		return
	}
	data := req.Data
	if data == nil {
		data = req.Value
	}
	if data == nil {
		return
	}
	copyFill.Add(len(data))
	req.Charge("cache", e.Model.Copy(len(data)))
	cp := core.AcquireBuf(len(data))
	copy(cp, data)
	c.insertPage(&page{off: req.Offset, data: cp})
}

func (c *Cache) processWrite(e *core.Exec, req *core.Request) error {
	aligned := req.Size == c.pageSize && req.Offset%int64(c.pageSize) == 0
	if aligned && req.DirectIO && !c.resident(req.Offset) {
		// No page is allocated for a direct write, so nothing is copied. A
		// resident page is updated below instead, keeping it coherent.
		req.Charge("cache", e.Model.LRUCacheOp)
		return e.Next(req)
	}
	// Page allocation + copy into the cache: the write payload is borrowed
	// from the client's registered buffer, so the cache must take its own
	// copy (DESIGN.md §13 — write payloads may never be retained).
	req.Charge("cache", e.Model.LRUCacheOp+e.Model.Copy(req.Size))
	if aligned {
		copyWriteInsert.Add(req.Size)
		// Handle-backed insert: the copied page can be handed out as a
		// retained view on later Data==nil reads (get-after-put and
		// pushdown scans over warm data are then zero-copy).
		h := core.AcquireHandle(len(req.Data))
		copy(h.Bytes(), req.Data)
		c.insertPage(&page{off: req.Offset, data: h.Bytes(), h: h, dirty: c.policy == "writeback"})
		if c.policy == "writeback" {
			req.Result = int64(req.Size)
			return nil // absorbed; flushed on eviction or OpBlockFlush
		}
	}
	return e.Next(req)
}

func (c *Cache) processFlush(e *core.Exec, req *core.Request) error {
	req.Charge("cache", e.Model.LRUCacheOp)
	if c.policy != "writeback" {
		return e.Next(req)
	}
	// Write back every dirty page downstream. Handle-backed pages are
	// pinned by retaining them — a concurrent replacement releases its own
	// reference but cannot recycle ours. Legacy pages are snapshotted by
	// copy, since their buffer goes straight back to the arena when
	// replaced.
	type flushPage struct {
		off  int64
		data []byte
		h    core.BufHandle
	}
	c.mu.Lock()
	dirty := make([]flushPage, 0)
	for i := range c.slots {
		if p := &c.slots[i]; p.dirty {
			p.dirty = false
			if p.h.Valid() {
				h := p.h.Retain()
				dirty = append(dirty, flushPage{off: p.off, data: h.Bytes(), h: h})
				continue
			}
			copyFlushSnap.Add(len(p.data))
			cp := core.AcquireBuf(len(p.data))
			copy(cp, p.data)
			dirty = append(dirty, flushPage{off: p.off, data: cp})
		}
	}
	c.mu.Unlock()
	for _, fp := range dirty {
		child := req.Child(core.OpBlockWrite)
		child.Offset = fp.off
		child.Size = len(fp.data)
		child.Data = fp.data
		err := e.SpawnNext(req, child)
		child.Data = nil
		child.Release()
		if fp.h.Valid() {
			fp.h.Release()
		} else {
			core.ReleaseBuf(fp.data)
		}
		if err != nil {
			return err
		}
	}
	return e.Next(req)
}

// insertPage adds/updates a page and evicts the LRU page beyond capacity.
// Evicted dirty pages are lost unless flushed first — writeback callers
// must flush; the functional tests cover this contract. The page's buffer
// is owned by the cache from here on: a retained handle reference, or an
// arena buffer returned on replacement/eviction.
func (c *Cache) insertPage(np *page) {
	c.mu.Lock()
	if i, ok := c.index[np.off]; ok {
		p := &c.slots[i]
		old := *p
		p.data, p.h = np.data, np.h
		p.dirty = p.dirty || np.dirty
		c.touch(i)
		c.mu.Unlock()
		old.release()
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
	victim.release()
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
// upgrade keeps the cache warm). Buffer ownership — handle references and
// arena buffers alike — transfers to the new instance for the capacity
// most recent pages, in their recency order; a smaller cache releases the
// rest. The old instance is discarded without releasing.
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
			p.release()
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

// EstProcessingTime estimates the cache's CPU cost for a request.
func (c *Cache) EstProcessingTime(op core.Op, size int) vtime.Duration {
	return c.Env.Model.LRUCacheOp + c.Env.Model.Copy(size)
}
