// Package core implements the LabStor platform core: the LabMod programming
// model (type / operation / state / connector with the StateUpdate and
// StateRepair lifecycle APIs), the Module Registry, the LabStack DAG, the
// LabStack Namespace with longest-prefix mount resolution, and the Executor
// that walks a request through a stack.
package core

import (
	"fmt"
	"sync/atomic"

	"labstor/internal/vtime"
)

// Op identifies the operation a Request carries. The set spans the
// interfaces LabStor multiplexes: POSIX file ops (GenericFS), key-value ops
// (GenericKVS), block I/O (drivers), and control/diagnostic messages.
type Op uint8

// Request operations.
const (
	OpNop Op = iota
	// POSIX file interface (GenericFS / LabFS).
	OpOpen
	OpCreate
	OpClose
	OpRead
	OpWrite
	OpAppend
	OpFsync
	OpStat
	OpUnlink
	OpRename
	OpMkdir
	OpRmdir
	OpReaddir
	OpTruncate
	// Key-value interface (GenericKVS / LabKVS).
	OpPut
	OpGet
	OpDel
	OpHas
	// Block interface (schedulers, caches, drivers).
	OpBlockRead
	OpBlockWrite
	OpBlockFlush
	OpBlockDiscard
	// Control and diagnostics.
	OpMessage
	OpIoctl
	// Computation pushdown: run a registered program against the data
	// where it lives (KVS scan-with-predicate, FS grep-offload).
	OpScan
)

var opNames = map[Op]string{
	OpNop: "nop", OpOpen: "open", OpCreate: "create", OpClose: "close",
	OpRead: "read", OpWrite: "write", OpAppend: "append", OpFsync: "fsync",
	OpStat: "stat", OpUnlink: "unlink", OpRename: "rename", OpMkdir: "mkdir",
	OpRmdir: "rmdir", OpReaddir: "readdir", OpTruncate: "truncate",
	OpPut: "put", OpGet: "get", OpDel: "del", OpHas: "has",
	OpBlockRead: "block_read", OpBlockWrite: "block_write",
	OpBlockFlush: "block_flush", OpBlockDiscard: "block_discard",
	OpMessage: "message", OpIoctl: "ioctl", OpScan: "scan",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsWrite reports whether the op moves data toward the device.
func (o Op) IsWrite() bool {
	switch o {
	case OpWrite, OpAppend, OpPut, OpBlockWrite:
		return true
	}
	return false
}

// StageTime records the virtual time one pipeline stage charged to a
// request; the sequence of StageTimes is the request's "anatomy"
// (paper Fig. 4a).
type StageTime struct {
	Stage string
	Cost  vtime.Duration
}

// Request is the unit of work that flows through a LabStack. A request is
// created by a connector (client library / Generic LabMod), carried over a
// queue pair, and walked through the stack's module DAG by an Executor.
type Request struct {
	ID uint64
	Op Op

	// Interface-specific operands; which fields are meaningful depends on Op.
	Path   string // file path (relative to the stack mount)
	Path2  string // rename target
	FD     int    // file descriptor
	Key    string // key-value key
	Offset int64  // file or device offset
	Size   int    // requested length
	Data   []byte // payload (write/put) or destination (read/get)
	// Buf is the handle behind Data when the payload lives in an arena
	// buffer (zero-copy path). The request borrows it: a payload handle is
	// released by whoever attached it (SetPayload), and views a parent cut
	// from its own result (Slice) die with the parent. A mod may Retain a
	// Buf view instead of copying it; a bare Data slice must be copied.
	Buf      BufHandle
	Flags    int
	Mode     uint32
	Cred     Cred // caller credentials for permission checking
	Hctx     int  // hardware dispatch queue selected by an I/O scheduler
	DirectIO bool // write without allocating a cache page (O_DIRECT); a cached block is still updated

	// Prog references a registered pushdown program (OpScan): either a
	// content-hash ref or a registered name resolved to one by the policy
	// layer. Empty means plain scan (list keys / full read).
	Prog string
	// ProgMaxBytes / ProgMaxSteps are the per-request execution budgets a
	// pushdown policy clamped onto the request; 0 means the evaluator's
	// built-in defaults apply.
	ProgMaxBytes int64
	ProgMaxSteps int64

	// Stack routing state.
	StackID int
	plan    *Plan // plan of the stack being walked, pinned by Exec.Submit
	vertex  int   // position in plan of the vertex processing the request

	// Virtual-time accounting.
	Arrival vtime.Time // submission time (client clock)
	Clock   vtime.Time // request-local clock, advanced by every stage
	// CPUTime accumulates only the charged software-stage costs (device
	// service advances Clock but not CPUTime); workers bill CPUTime against
	// their own clocks.
	CPUTime vtime.Duration
	Stages  []StageTime
	Trace   bool // record Stages when true

	// Outcome.
	Err    error
	Result int64  // op-defined scalar result (bytes moved, fd, size, ...)
	Value  []byte // op-defined payload result (get/read-into-fresh)
	// ValueH is the stack-owned handle behind Value (set by
	// CompleteValue). The request owns one reference until Release; a
	// client that wants the result zero-copy takes it over via TakeValue.
	ValueH BufHandle
	Names  []string // readdir / scan results

	// OriginCore is the CPU core the request originated from (used by the
	// NoOp scheduler's core-keyed queue mapping).
	OriginCore int

	// Completion handshake (DESIGN.md §9). state is the completion word:
	// the submitter polls it and the completer writes done into it exactly
	// once. It stays a plain uint32 driven through sync/atomic so that
	// reset can rewrite the whole struct. waker is the submitting client's
	// wake channel, stamped before the request is queued.
	state uint32
	waker chan<- struct{}
}

// Completion-word states. pending → parked is written by the waiter (Park),
// anything → done by the completer (MarkDone); nothing leaves done until the
// request is recycled.
const (
	reqPending uint32 = iota
	reqParked
	reqDone
)

// Open flags carried in Request.Flags (a subset of POSIX open semantics).
const (
	// FlagCreate creates the file if it does not exist (O_CREAT).
	FlagCreate = 1 << iota
	// FlagTrunc truncates an existing file to zero length (O_TRUNC).
	FlagTrunc
	// FlagExcl fails if the file already exists (O_EXCL, with FlagCreate).
	FlagExcl
	// FlagAppend positions every write at end-of-file (O_APPEND).
	FlagAppend
)

// Cred carries caller identity for permission-check LabMods.
type Cred struct {
	UID int
	GID int
}

var reqID atomic.Uint64

// Charge advances the request clock by d and, when tracing, records the
// stage name.
func (r *Request) Charge(stage string, d vtime.Duration) {
	if d < 0 {
		d = 0
	}
	r.Clock = r.Clock.Add(d)
	r.CPUTime += d
	if r.Trace {
		r.Stages = append(r.Stages, StageTime{Stage: stage, Cost: d})
	}
}

// ChargeIO advances the request clock to a device completion time and, when
// tracing, records the device interval as a stage. It does not add CPU time.
func (r *Request) ChargeIO(stage string, completion vtime.Time) {
	wait := completion.Sub(r.Clock)
	if wait < 0 {
		wait = 0
	}
	r.Clock = r.Clock.Add(wait)
	if r.Trace {
		r.Stages = append(r.Stages, StageTime{Stage: stage, Cost: wait})
	}
}

// AdvanceTo moves the request clock to at least t (e.g. to a device
// completion time).
func (r *Request) AdvanceTo(t vtime.Time) {
	if t > r.Clock {
		r.Clock = t
	}
}

// Latency returns the request's modeled end-to-end latency.
func (r *Request) Latency() vtime.Duration { return r.Clock.Sub(r.Arrival) }

// MarkDone publishes completion: every write the completer made to the
// request happens before a Done that reports true. It is the completer's
// last touch of the request — a pooled request may be reset the instant the
// word reads done, so the waker is read before the swap and nothing of r
// after it. The send never blocks: a token already in the channel wakes the
// waiter just as well, and the waiter re-checks the word on every wake.
func (r *Request) MarkDone() {
	w := r.waker
	if atomic.SwapUint32(&r.state, reqDone) == reqParked {
		select {
		case w <- struct{}{}:
		default:
		}
	}
}

// Done reports whether MarkDone has been called.
func (r *Request) Done() bool { return atomic.LoadUint32(&r.state) == reqDone }

// SetWaker stamps the channel MarkDone signals if the waiter has parked.
// The submitter calls it before the request becomes visible to a completer.
func (r *Request) SetWaker(w chan<- struct{}) { r.waker = w }

// Park announces that the waiter is about to block on its wake channel. It
// reports false when the request has already completed, in which case no
// wake-up will be sent.
func (r *Request) Park() bool {
	return atomic.CompareAndSwapUint32(&r.state, reqPending, reqParked) ||
		atomic.LoadUint32(&r.state) == reqParked
}

// Child draws a follow-on request (e.g. a block I/O spawned by a
// filesystem op) from the request pool; it inherits the parent's routing
// and clock. The spawner runs it with Exec.SpawnNext, which absorbs and
// releases it.
func (r *Request) Child(op Op) *Request {
	c := NewRequest(op)
	c.StackID = r.StackID
	c.plan = r.plan
	c.vertex = r.vertex
	c.Arrival = r.Arrival
	c.Clock = r.Clock
	c.Cred = r.Cred
	c.Trace = r.Trace
	c.OriginCore = r.OriginCore
	c.Hctx = r.Hctx
	return c
}

// absorb merges a completed child's clock, CPU time, trace and first error
// back into the parent (Exec.SpawnNext).
func (r *Request) absorb(c *Request) {
	if c.Clock > r.Clock {
		r.Clock = c.Clock
	}
	r.CPUTime += c.CPUTime
	if r.Trace {
		r.Stages = append(r.Stages, c.Stages...)
	}
	if c.Err != nil && r.Err == nil {
		r.Err = c.Err
	}
}

func (r *Request) String() string {
	return fmt.Sprintf("req#%d %s path=%q key=%q off=%d size=%d stack=%d", r.ID, r.Op, r.Path, r.Key, r.Offset, r.Size, r.StackID)
}
