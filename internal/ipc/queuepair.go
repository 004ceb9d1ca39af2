package ipc

import "sync/atomic"

// Credentials are the process credentials a client presents when it
// connects to the Runtime (paper §III-C, over a UNIX domain socket). The
// Runtime keeps them with the client: every request carries its UID and
// GID for permission checks, and a cloned client keeps them under its own
// PID.
type Credentials struct {
	PID int
	UID int
	GID int
}

// QueueKind distinguishes where a queue sits on the request path.
type QueueKind uint8

const (
	// Primary queues are where clients initiate requests. In the paper they
	// live in shared memory.
	Primary QueueKind = iota
	// Intermediate queues hold requests spawned as a result of another
	// request (module-to-module forwarding).
	Intermediate
)

func (k QueueKind) String() string {
	if k == Primary {
		return "primary"
	}
	return "intermediate"
}

// QueuePair is a submission queue / completion queue pair, the unit the
// Work Orchestrator assigns to workers.
//
// Ordered queue pairs must be processed in sequence by a single worker;
// unordered pairs may be drained by several workers concurrently. Both
// rings are MPMC so either discipline is safe; ordering is a scheduling
// contract enforced by the orchestrator, not by the data structure.
type QueuePair[T any] struct {
	// ID uniquely identifies the pair within its runtime.
	ID int
	// Kind records whether this is a primary or intermediate queue.
	Kind QueueKind
	// Ordered marks the pair as requiring single-worker FIFO processing.
	Ordered bool
	// OwnerClient is the client identifier for primary queues (0 if none).
	OwnerClient int

	sq *Ring[T]
	cq *Ring[T]

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
	Inflight int       `json:"inflight"`
	SQ       RingStats `json:"sq"`
	CQ       RingStats `json:"cq"`
}

// Stats snapshots both rings and the pair's in-flight count.
func (q *QueuePair[T]) Stats() QueuePairStats {
	return QueuePairStats{
		ID:       q.ID,
		Kind:     q.Kind.String(),
		Owner:    q.OwnerClient,
		Inflight: q.Inflight(),
		SQ:       q.sq.Stats(),
		CQ:       q.cq.Stats(),
	}
}

// SQLen returns the number of requests waiting in the submission queue.
func (q *QueuePair[T]) SQLen() int { return q.sq.Len() }
