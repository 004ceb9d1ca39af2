package core

import "labstor/internal/arena"

// Zero-copy buffer handles live in the leaf package internal/arena, which
// the device store imports too (core imports device, so the arena cannot
// live here). These aliases keep core's names for them.

// BufHandle is a refcounted view of an arena buffer (arena.Handle).
type BufHandle = arena.Handle

// ArenaStats is the buffer arena's cumulative accounting (arena.Stats).
type ArenaStats = arena.Stats

// AcquireHandle returns a stack-owned handle of length n backed by an
// arena buffer (arena.Acquire). Contents are unspecified. The caller owns
// the single reference.
func AcquireHandle(n int) BufHandle { return arena.Acquire(n) }

// BufArenaStats snapshots the arena counters (telemetry).
func BufArenaStats() ArenaStats { return arena.ReadStats() }

// HandleDoubleReleases returns how many BufHandle double-releases have
// been absorbed (non-debug builds count instead of panicking).
func HandleDoubleReleases() int64 { return arena.DoubleReleases() }

// SetDebugChecks toggles buffer poison/double-release checking (and the
// device store's adopted-block checksums) at runtime and returns the
// previous setting.
func SetDebugChecks(on bool) bool { return arena.SetDebugChecks(on) }

// Handle plumbing on Request ------------------------------------------------

// SetPayload attaches a payload handle to the request: Data becomes a view
// of the handle. The request borrows the handle — completion does not
// release it; the holder does. SetPayload freezes the buffer: a cache or
// the device may retain it, so from here on the holder may Release the
// handle but never write its bytes again.
func (r *Request) SetPayload(b BufHandle) {
	r.Buf = b
	r.Data = b.Bytes()
}

// CompleteValue allocates the request's result as a stack-owned handle
// (r.ValueH) and points r.Value, which it returns, at its bytes. Mods use
// it for results whose payload the caller did not supply a buffer for.
// Release drops the request's reference, and clients that want to keep the
// result zero-copy call TakeValue first.
func (r *Request) CompleteValue(n int) []byte {
	r.ValueH.Release()
	r.ValueH = AcquireHandle(n)
	// Expose the class-capacity backing (cap > n): in-place consumers
	// such as LabKVS's tail-block read rely on the slack.
	r.Value = r.ValueH.Backing()
	return r.Value
}

// SetValue makes h, an owned reference, the request's result: r.ValueH
// takes it over and r.Value, which it returns, views its bytes. A driver
// answers a read with no destination this way, with a retained view of
// the device's stored block.
func (r *Request) SetValue(h BufHandle) []byte {
	r.ValueH.Release()
	r.ValueH = h
	r.Value = h.Bytes()
	return r.Value
}

// TakeValue transfers ownership of the request's result buffer to the
// caller: the request forgets the handle, so Release on the request will
// not recycle it. Clients use this to keep a zero-copy result alive past
// request recycling; they must Release the returned handle themselves.
func (r *Request) TakeValue() BufHandle {
	h := r.ValueH
	r.ValueH = BufHandle{}
	if h.Valid() {
		// Value aliases the taken buffer, which is the caller's now.
		r.Value = nil
	}
	return h
}
