package ipc

import (
	"fmt"
	"sync/atomic"
)

// QueueKind distinguishes where a queue sits on the request path.
type QueueKind uint8

const (
	// Primary queues are where clients initiate requests. In the paper they
	// live in shared memory and participate in the live-upgrade pause
	// protocol.
	Primary QueueKind = iota
	// Intermediate queues hold requests spawned as a result of another
	// request (module-to-module forwarding); they drain fully before an
	// upgrade proceeds.
	Intermediate
)

func (k QueueKind) String() string {
	if k == Primary {
		return "primary"
	}
	return "intermediate"
}

// UpgradeState is the live-upgrade handshake state of a primary queue pair
// (paper §III-C2): the Module Manager marks primary queues UPDATE_PENDING;
// workers acknowledge with UPDATE_ACKED and stop draining the queue until
// the upgrade completes.
type UpgradeState uint32

const (
	// Running means requests flow normally.
	Running UpgradeState = iota
	// UpdatePending is set by the Module Manager when an upgrade is queued.
	UpdatePending
	// UpdateAcked is set by the processing worker once it has observed
	// UpdatePending and paused the queue.
	UpdateAcked
)

func (s UpgradeState) String() string {
	switch s {
	case Running:
		return "RUNNING"
	case UpdatePending:
		return "UPDATE_PENDING"
	case UpdateAcked:
		return "UPDATE_ACKED"
	default:
		return fmt.Sprintf("UpgradeState(%d)", uint32(s))
	}
}

// QueuePair is a submission queue / completion queue pair, the unit the
// Work Orchestrator assigns to workers.
//
// Ordered queue pairs must be processed in sequence by a single worker;
// unordered pairs may be drained by several workers concurrently. Both
// rings are MPMC so either discipline is safe; ordering is a scheduling
// contract enforced by the orchestrator, not by the data structure.
type QueuePair[T any] struct {
	// ID uniquely identifies the pair within its segment.
	ID int
	// Kind records whether this is a primary or intermediate queue.
	Kind QueueKind
	// Ordered marks the pair as requiring single-worker FIFO processing.
	Ordered bool
	// OwnerClient is the client identifier for primary queues (0 if none).
	OwnerClient int

	sq *Ring[T]
	cq *Ring[T]

	state    atomic.Uint32
	inflight atomic.Int64 // submitted but not yet completed
}

// NewQueuePair returns a queue pair whose rings hold depth entries each.
func NewQueuePair[T any](id int, kind QueueKind, ordered bool, depth int) *QueuePair[T] {
	return &QueuePair[T]{
		ID:      id,
		Kind:    kind,
		Ordered: ordered,
		sq:      NewRing[T](depth),
		cq:      NewRing[T](depth),
	}
}

// SubmitBatch places up to len(vals) requests on the submission queue with
// a single ring reservation, returning how many were enqueued (a partial
// count when the ring fills mid-batch).
func (q *QueuePair[T]) SubmitBatch(vals []T) int {
	n := q.sq.EnqueueBatch(vals)
	if n > 0 {
		q.inflight.Add(int64(n))
	}
	return n
}

// PollSQBatch removes up to len(dst) submitted requests with a single ring
// reservation (worker side), returning how many were dequeued.
func (q *QueuePair[T]) PollSQBatch(dst []T) int { return q.sq.DequeueBatch(dst) }

// CompleteBatch finishes every request in vals: as many as fit go on the
// completion queue with a single ring reservation (the count is returned),
// and the caller signals the rest directly. All of them stop counting as
// in flight, whichever way their completion is delivered.
func (q *QueuePair[T]) CompleteBatch(vals []T) int {
	q.inflight.Add(-int64(len(vals)))
	return q.cq.EnqueueBatch(vals)
}

// PollCQBatch removes up to len(dst) completions with a single ring
// reservation (client side), returning how many were dequeued.
func (q *QueuePair[T]) PollCQBatch(dst []T) int { return q.cq.DequeueBatch(dst) }

// Inflight returns the number of submitted-but-not-completed requests.
func (q *QueuePair[T]) Inflight() int { return int(q.inflight.Load()) }

// QueuePairStats is a queue pair's cumulative traffic accounting.
type QueuePairStats struct {
	ID       int       `json:"id"`
	Kind     string    `json:"kind"`
	Owner    int       `json:"owner_client"`
	State    string    `json:"state"`
	Inflight int       `json:"inflight"`
	SQ       RingStats `json:"sq"`
	CQ       RingStats `json:"cq"`
}

// Stats snapshots both rings and the pair's upgrade/inflight state.
func (q *QueuePair[T]) Stats() QueuePairStats {
	return QueuePairStats{
		ID:       q.ID,
		Kind:     q.Kind.String(),
		Owner:    q.OwnerClient,
		State:    q.State().String(),
		Inflight: q.Inflight(),
		SQ:       q.sq.Stats(),
		CQ:       q.cq.Stats(),
	}
}

// SQLen returns the number of requests waiting in the submission queue.
func (q *QueuePair[T]) SQLen() int { return q.sq.Len() }

// State returns the queue's upgrade-handshake state.
func (q *QueuePair[T]) State() UpgradeState { return UpgradeState(q.state.Load()) }

// MarkUpdatePending transitions Running -> UpdatePending (Module Manager
// side). It reports whether the transition happened.
func (q *QueuePair[T]) MarkUpdatePending() bool {
	return q.state.CompareAndSwap(uint32(Running), uint32(UpdatePending))
}

// AckUpdate transitions UpdatePending -> UpdateAcked (worker side). It
// reports whether the transition happened.
func (q *QueuePair[T]) AckUpdate() bool {
	return q.state.CompareAndSwap(uint32(UpdatePending), uint32(UpdateAcked))
}

// ResumeAfterUpdate returns the queue to Running from any upgrade state.
func (q *QueuePair[T]) ResumeAfterUpdate() { q.state.Store(uint32(Running)) }
