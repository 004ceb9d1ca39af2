package runtime

import (
	"errors"
	"fmt"
	gort "runtime"
	"time"

	"labstor/internal/core"
	"labstor/internal/ipc"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

// ErrWaitTimeout is returned by Wait when the Runtime stays offline longer
// than the client's configured patience.
var ErrWaitTimeout = errors.New("runtime: timed out waiting for runtime restart")

// Client is the LabStor client library endpoint for one application
// process/thread. Connecting performs the paper's handshake: the client
// presents process credentials over a UNIX-domain-socket-equivalent and the
// Runtime allocates its queue pair. The paper maps that pair into shared
// memory and grants the client access to the segment; here client and
// Runtime share one address space, so there is no segment.
type Client struct {
	rt   *Runtime
	id   int
	cred ipc.Credentials

	qp *QP

	// clock is the client thread's virtual clock; it advances with each
	// completion, making submissions closed-loop in virtual time.
	clock vtime.Clock

	// syncExec walks sync-mode stacks directly in the client thread
	// (decentralized execution, Lab-D). Its slot is this client's in the
	// control plane's quiescence.
	syncExec *core.Exec

	// RestartPatience bounds how long Wait tolerates a crashed Runtime.
	RestartPatience time.Duration

	// OriginCore tags submitted requests with the client's CPU core (used
	// by the NoOp scheduler's core-keyed hctx mapping).
	OriginCore int

	// Cached telemetry handles (one atomic add per event on the hot path).
	mSubmitted *telemetry.Counter // async submissions enqueued
	mSyncRuns  *telemetry.Counter // sync-mode (client-side) executions
	mRingFull  *telemetry.Counter // submit retries after a full SQ ring

	// cqBuf is the reusable completion-reap buffer: Wait drains the CQ with
	// one vectored ring reservation per run instead of one CAS pair per
	// slot. A Client serves a single application thread (the paper's
	// per-thread client library instance), so the buffer is not locked.
	cqBuf []*core.Request
	// one is SubmitStack's batch of one: the slice handed to enqueue, kept
	// here so a lone request costs no allocation.
	one [1]*core.Request

	// p is where Wait parks. Every request this client submits carries its
	// bell (core.Request.SetWaker): a completer rings it only when the
	// waiter has parked on the request's completion word.
	p parker
}

// waitPollBudget is how many times Wait yields and re-checks the completion
// word before it parks. A worker that is already polling completes a cached
// request within a few yields, and a hit here saves the park/unpark round
// trip through the Go scheduler; past a few dozen the waiter only takes the
// processor from the worker it waits for (measured in EXPERIMENTS.md "Polled
// completions").
const waitPollBudget = 24

// Connect registers a new client with the Runtime and allocates its primary
// queue pair. The client keeps cred: its requests carry the UID and GID.
// Client and Runtime share one address space, so nothing is mapped for
// the queue pair (the paper's ShMemMod is not modelled).
func (rt *Runtime) Connect(cred ipc.Credentials) *Client {
	rt.mu.Lock()
	rt.nextCli++
	rt.nextQP++
	id := rt.nextCli
	qp := ipc.NewQueuePair[*core.Request](rt.nextQP, ipc.Primary, true, rt.opts.QueueDepth)
	qp.OwnerClient = id

	c := &Client{
		rt:              rt,
		id:              id,
		cred:            cred,
		qp:              qp,
		RestartPatience: 5 * time.Second,
		OriginCore:      id,
		p:               newParker(),
	}
	c.syncExec = core.NewExec(rt.Registry, rt.Namespace, rt.opts.Model, -1)
	c.syncExec.Admit = rt.admit
	c.cqBuf = make([]*core.Request, min(rt.opts.QueueDepth, 256))
	c.mSubmitted = rt.metrics.Counter("client.submitted")
	c.mSyncRuns = rt.metrics.Counter("client.sync_executed")
	c.mRingFull = rt.metrics.Counter("client.sq_full_retries")
	rt.clients[id] = c
	rt.mu.Unlock()

	// Hand the queue to the orchestrator for assignment.
	rt.orch.AddQueue(qp)
	return c
}

// Clone implements the fork/clone support path (paper §III-F): the child
// process gets its own connection — its own PID in the parent's
// credentials and a fresh queue pair — while open file descriptors
// remain visible because GenericFS manages fd state common to the I/O
// systems of its type. The child's virtual clock starts at the parent's
// (a forked process inherits its parent's position on the timeline).
func (c *Client) Clone(childPID int) *Client {
	cred := c.cred
	cred.PID = childPID
	child := c.rt.Connect(cred)
	child.OriginCore = c.OriginCore
	child.clock.AdvanceTo(c.clock.Now())
	return child
}

// Disconnect removes the client and retires its queue pair.
func (c *Client) Disconnect() {
	c.rt.mu.Lock()
	delete(c.rt.clients, c.id)
	c.rt.mu.Unlock()
	c.rt.orch.RemoveQueue(c.qp)
}

// ID returns the client identifier.
func (c *Client) ID() int { return c.id }

// Clock returns the client's current virtual time.
func (c *Client) Clock() vtime.Time { return c.clock.Now() }

// QueuePair exposes the client's primary queue pair (diagnostics/tests).
func (c *Client) QueuePair() *QP { return c.qp }

// Resolve finds the stack serving path and the path remainder.
func (c *Client) Resolve(path string) (*core.Stack, string, bool) {
	return c.rt.Namespace.Resolve(path)
}

// Submit routes req to the stack mounted at mount. Depending on the stack's
// exec mode the request is either placed on the client's queue pair for a
// Runtime worker (async: the centralized, secure path) or executed inline
// in the client thread (sync: the decentralized path with no IPC).
//
// Submit returns once the request is finished (async submissions wait via
// Wait, which detects Runtime crashes and blocks for restart).
func (c *Client) Submit(mount string, req *core.Request) error {
	s, rem, ok := c.rt.Namespace.Resolve(mount)
	if !ok {
		return fmt.Errorf("runtime: no stack serving %q", mount)
	}
	if req.Path == "" {
		req.Path = rem
	}
	return c.SubmitStack(s, req)
}

// SubmitStack routes req to an already-resolved stack and returns once it
// is finished: a batch of one, waited for.
func (c *Client) SubmitStack(s *core.Stack, req *core.Request) error {
	if s.Rules.ExecMode == core.ExecSync {
		// Decentralized: walk the DAG in the client thread. No queue, no
		// IPC charge. A crashed runtime is waited out as Wait does.
		c.stamp(s, req, c.clock.Now())
		c.mSyncRuns.Inc()
		err := c.rt.walk(c.syncExec, s, req, c.RestartPatience)
		req.MarkDone()
		c.clock.AdvanceTo(req.Clock)
		if err != nil && req.Err == nil {
			req.Err = err
		}
		return req.Err
	}

	// Centralized: enqueue on the primary queue pair and poll for the
	// completion.
	c.one[0] = req
	err := c.enqueue(s, c.one[:])
	c.one[0] = nil // the ring has it now; do not keep it from the collector
	if err != nil {
		return err
	}
	if err := c.Wait(req); err != nil {
		return err
	}
	c.clock.AdvanceTo(req.Clock)
	return req.Err
}

// SubmitBatch stamps and enqueues a run of requests on the client's queue
// pair with as few ring reservations as possible (one when the ring has
// room) and returns without waiting — the queue-depth>1 submission path.
// Reap with Wait/WaitAll. All requests share one submission timestamp,
// exactly as if the application thread had queued them back-to-back without
// observing completions in between.
//
// Sync-mode stacks have no queue to batch into; they fall back to
// sequential inline execution.
func (c *Client) SubmitBatch(s *core.Stack, reqs []*core.Request) error {
	if s.Rules.ExecMode == core.ExecSync {
		for _, req := range reqs {
			if err := c.SubmitStack(s, req); err != nil {
				return err
			}
		}
		return nil
	}
	return c.enqueue(s, reqs)
}

// stamp records on req what the Runtime needs to know about a submission:
// the stack it is for, who sent it and from where, and the client's virtual
// time as both its arrival and its starting clock.
func (c *Client) stamp(s *core.Stack, req *core.Request, now vtime.Time) {
	req.StackID = s.ID
	req.Cred = core.Cred{UID: c.cred.UID, GID: c.cred.GID}
	req.OriginCore = c.OriginCore
	req.Arrival = now
	req.Clock = now
}

// enqueue is the one way onto the submission queue: it stamps reqs, charges
// each the queue operation, and places them on the ring, yielding to the
// workers while the ring is full.
func (c *Client) enqueue(s *core.Stack, reqs []*core.Request) error {
	now := c.clock.Now()
	queueOp := c.rt.opts.Model.QueueOp
	for _, req := range reqs {
		c.stamp(s, req, now)
		req.SetWaker(c.p.bell)
		req.Charge("queue", queueOp)
	}
	for sent := 0; sent < len(reqs); {
		if c.rt.state.Load() == stateStopped {
			// Reqs before sent are already queued; the caller must still
			// WaitAll them if the Runtime comes back.
			return ErrStopped
		}
		n := c.qp.SubmitBatch(reqs[sent:])
		if n == 0 {
			// Ring full: let the workers drain it.
			c.mRingFull.Inc()
			c.rt.pokeWorkers()
			gort.Gosched()
			continue
		}
		sent += n
		c.mSubmitted.Add(int64(n))
	}
	c.rt.pokeWorkers()
	return nil
}

// WaitAll reaps a batch of async submissions, advancing the client clock to
// the latest completion. Every request is drained even when one fails —
// returning early would leak the remaining requests' CQ slots and leave the
// client clock behind their completions — and the first error (wait failure
// or request error, in submission order) is reported after the drain.
func (c *Client) WaitAll(reqs []*core.Request) error {
	var firstErr error
	for _, req := range reqs {
		if err := c.Wait(req); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.clock.AdvanceTo(req.Clock)
		if req.Err != nil && firstErr == nil {
			firstErr = req.Err
		}
	}
	return firstErr
}

// Call builds, submits and waits for a request in one step.
func (c *Client) Call(mount string, op core.Op, build func(*core.Request)) (*core.Request, error) {
	req := core.NewRequest(op)
	if build != nil {
		build(req)
	}
	err := c.Submit(mount, req)
	return req, err
}

// Wait blocks until req completes. If the Runtime crashes while the request
// is outstanding, Wait blocks until an administrator restarts it (up to
// RestartPatience), which repairs module state with StateRepair, and keeps
// waiting: the frozen queue still holds the request (paper §III-C3).
//
// The wait is poll-then-park, like the worker's: reap the CQ, check the
// completion word, yield-poll it for waitPollBudget rounds, and only then
// park on c.p, which Shutdown rings. Nothing is allocated on any path.
func (c *Client) Wait(req *core.Request) error {
	c.reapCQ()
	if req.Done() {
		return nil
	}
	// Gosched between checks hands the processor to the worker, so the
	// poll makes progress at GOMAXPROCS=1 too.
	for i := 0; i < waitPollBudget; i++ {
		gort.Gosched()
		if req.Done() {
			return nil
		}
	}
	deadline := time.Now().Add(c.RestartPatience)
	// Park reports false once the word reads done; a completer that finds
	// the word parked rings c.p. A ring may be a stale token, left by a
	// completion that raced an earlier backstop: the loop re-checks.
	for req.Park() {
		switch c.p.park(c.rt.stop) {
		case stopped:
			return ErrStopped
		case backstopped:
			// Periodic wake-up to detect a crashed Runtime. Once it is back
			// (Restart repaired module state), keep waiting: the frozen
			// queues are intact, so workers resume draining the request.
			if err := c.rt.awaitRestart(deadline); err != nil {
				return err
			}
		}
		c.reapCQ()
	}
	return nil
}

// reapCQ recycles the completion queue's ring slots: completions are
// signaled per request through the completion word, but the slots must be
// drained. One vectored reservation reaps a whole run of them.
func (c *Client) reapCQ() {
	for c.qp.PollCQBatch(c.cqBuf) > 0 {
	}
}
