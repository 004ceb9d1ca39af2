// Package readahead implements a predictive prefetch LabMod — the paper's
// example of using access-pattern analysis in userspace I/O policies
// ("time series analysis can be used to predict characteristics of future
// I/O requests"). The module watches per-stream block access patterns;
// when it detects a sequential run, it prefetches a configurable window of
// upcoming blocks into an internal buffer so subsequent reads complete
// without device round trips.
//
// Compose it above a driver (and typically below a cache):
//
//	fs -> lru -> readahead -> sched -> driver
package readahead

import (
	"sync"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/telemetry"
)

// Type is the registered module type name.
const Type = "labstor.readahead"

func init() {
	core.RegisterType(Type, func() core.Module { return &Prefetcher{} })
}

// maxBuffered bounds the prefetch buffer, in blocks: a window that would
// pass it stops short.
const maxBuffered = 256

// copyHitOut fires only when a hit must land in a caller-chosen
// destination; hits with no destination transfer the prefetched buffer
// by handle ownership — zero copies.
var copyHitOut = telemetry.CopySite("readahead.hit_copy_out")

// Prefetcher is the readahead module instance.
type Prefetcher struct {
	core.Base

	window  int // blocks to prefetch on a detected sequential run
	trigger int // consecutive sequential hits required

	mu sync.Mutex
	// streak tracks the current sequential run length per predicted next
	// offset.
	streak map[int64]int
	// buf holds prefetched blocks by device offset. Each entry owns one
	// handle reference; a hit either moves the handle to the request
	// (zero-copy) or copies and releases it.
	buf map[int64]core.BufHandle

	hits       int64
	prefetches int64
}

// Info describes the module.
func (p *Prefetcher) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: Type, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIBlock}
}

// Configure reads window (default 8 blocks) and trigger (default 2
// sequential accesses). A block is the device's (device.BlockSize).
func (p *Prefetcher) Configure(cfg core.Config, env *core.Env) error {
	if err := p.Base.Configure(cfg, env); err != nil {
		return err
	}
	var err error
	if p.window, err = cfg.Int("window", 8); err != nil {
		return err
	}
	if p.window < 1 {
		p.window = 8
	}
	if p.trigger, err = cfg.Int("trigger", 2); err != nil {
		return err
	}
	if p.trigger < 1 {
		p.trigger = 2
	}
	p.streak = make(map[int64]int)
	p.buf = make(map[int64]core.BufHandle)
	return nil
}

// Process serves reads from the prefetch buffer when possible, detects
// sequential runs, and issues the prefetch window downstream.
func (p *Prefetcher) Process(e *core.Exec, req *core.Request) error {
	switch req.Op {
	case core.OpBlockRead, core.OpRead:
	case core.OpBlockWrite, core.OpWrite, core.OpAppend:
		// Writes invalidate overlapping prefetched blocks.
		p.mu.Lock()
		for off := req.Offset - req.Offset%device.BlockSize; off < req.Offset+int64(req.Size); off += device.BlockSize {
			if h, ok := p.buf[off]; ok {
				delete(p.buf, off)
				h.Release()
			}
		}
		p.mu.Unlock()
		return e.Next(req)
	default:
		return e.Next(req)
	}

	aligned := req.Size == device.BlockSize && req.Offset%device.BlockSize == 0
	if !aligned {
		return e.Next(req)
	}

	// Served from the prefetch buffer?
	p.mu.Lock()
	if h, ok := p.buf[req.Offset]; ok {
		delete(p.buf, req.Offset) // single use; the cache above retains it
		p.hits++
		p.mu.Unlock()
		if req.Data == nil {
			// Ownership transfer: the prefetched buffer becomes the
			// request's result outright — no copy, no charge.
			req.ValueH = h
			req.Value = h.Bytes()
			req.Data = req.Value
			req.Result = device.BlockSize
			return nil
		}
		req.Charge("readahead", e.Model.Copy(req.Size))
		copyHitOut.Add(copy(req.Data, h.Bytes()))
		h.Release()
		req.Result = device.BlockSize
		return nil
	}
	// Pattern detection: did this read extend a run?
	run := p.streak[req.Offset] + 1
	delete(p.streak, req.Offset)
	next := req.Offset + device.BlockSize
	p.streak[next] = run
	if len(p.streak) > 1024 {
		p.streak = map[int64]int{next: run}
	}
	shouldPrefetch := run >= p.trigger
	p.mu.Unlock()

	if err := e.Next(req); err != nil {
		return err
	}

	if shouldPrefetch {
		// Fetch the window concurrently in virtual time; the prefetch
		// overlaps with the application's next think time, so it does not
		// extend this request's critical path: children start at the
		// request's post-read clock but the parent does not absorb them.
		base := req.Clock
		for i := 1; i <= p.window; i++ {
			off := req.Offset + int64(i)*device.BlockSize
			p.mu.Lock()
			_, have := p.buf[off]
			full := len(p.buf) >= maxBuffered
			p.mu.Unlock()
			if have || full {
				continue
			}
			child := req.Child(core.OpBlockRead)
			child.Clock = base
			child.Offset = off
			child.Size = device.BlockSize
			h := core.AcquireHandle(device.BlockSize)
			child.Data = h.Bytes()
			child.Buf = h
			err := e.Next(child)
			cpu := child.CPUTime
			child.Release() // drops Buf without releasing it: h is still ours
			if err != nil {
				h.Release()
				return nil // prefetch failures are not request failures
			}
			req.CPUTime += cpu
			p.mu.Lock()
			if _, dup := p.buf[off]; dup {
				p.mu.Unlock()
				h.Release()
				continue
			}
			p.buf[off] = h
			p.prefetches++
			// Extend the detected run past the prefetched region.
			p.streak[off+device.BlockSize] = run + i
			p.mu.Unlock()
		}
	}
	return nil
}

// Stats returns hit and prefetch counters.
func (p *Prefetcher) Stats() (hits, prefetches int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.prefetches
}

// Buffered returns the number of blocks currently held.
func (p *Prefetcher) Buffered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}

// StateUpdate migrates the prefetch buffer and pattern state.
func (p *Prefetcher) StateUpdate(prev core.Module) error {
	if old, ok := prev.(*Prefetcher); ok {
		old.mu.Lock()
		defer old.mu.Unlock()
		p.mu.Lock()
		defer p.mu.Unlock()
		p.buf = old.buf
		p.streak = old.streak
		p.hits, p.prefetches = old.hits, old.prefetches
	}
	return nil
}
