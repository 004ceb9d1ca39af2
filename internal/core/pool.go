package core

import (
	"sync"
	"sync/atomic"
)

// Request pooling: the async hot path allocates one Request per operation,
// which at millions of ops/s is exactly the GC pressure the paper's
// shared-memory request slabs avoid (requests there live in preallocated
// cacheline-sized shared segments). NewRequest/Release recycle Request
// objects through a sync.Pool so the steady-state hot path stops allocating
// the struct and its trace buffer.
//
// NewRequest is the one constructor and always draws from the pool; a
// request that is never Released is garbage like any other object, so
// callers that never Release keep working unchanged. Release is only safe
// once the request has fully completed (Wait/WaitAll returned) and the
// caller has copied out any results it needs — after Release the object
// may be reused and every field, including Data, Value, Names and Err, is
// rewritten.
var reqPool = sync.Pool{
	New: func() any {
		poolMisses.Add(1)
		return &Request{}
	},
}

var (
	poolGets   atomic.Int64 // NewRequest calls
	poolMisses atomic.Int64 // NewRequests that had to allocate
	poolPuts   atomic.Int64 // Release calls
)

// NewRequest returns a reset Request with a fresh ID, drawn from the
// request pool when possible.
func NewRequest(op Op) *Request {
	poolGets.Add(1)
	r := reqPool.Get().(*Request)
	r.reset(op)
	return r
}

// Release returns a completed request to the pool and drops its result
// handle (ValueH). A bare Value without a handle (a mod's own heap slice)
// is never recycled: it is left to the GC. The payload (Data, and the
// handle Buf behind it) is borrowed and deliberately NOT released — its
// owner (the serve plane or a parent request) does that; Release only
// forgets both, so a pooled request never pins caller memory. The caller
// must not touch r afterwards.
// Never call Release on a request that is still queued, executing, or
// being waited on.
func (r *Request) Release() {
	poolPuts.Add(1)
	r.ValueH.Release()
	r.ValueH, r.Value, r.Data, r.Buf = BufHandle{}, nil, nil, BufHandle{}
	reqPool.Put(r)
}

// reset rewrites every field for reuse, keeping only the Stages backing
// array (trace capacity) across generations. The completion word returns to
// pending; the previous generation's completer finished with the request
// before its word read done (MarkDone).
func (r *Request) reset(op Op) {
	stages := r.Stages[:0]
	*r = Request{
		ID:     reqID.Add(1),
		Op:     op,
		Stages: stages,
	}
}

// PoolStats is the request pool's cumulative accounting. Hits is Gets that
// were served by a recycled object.
type PoolStats struct {
	Gets     int64 `json:"gets"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Releases int64 `json:"releases"`
}

// RequestPoolStats snapshots the pool counters (telemetry).
func RequestPoolStats() PoolStats {
	gets := poolGets.Load()
	misses := poolMisses.Load()
	return PoolStats{Gets: gets, Hits: gets - misses, Misses: misses, Releases: poolPuts.Load()}
}
