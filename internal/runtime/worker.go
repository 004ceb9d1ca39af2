package runtime

import (
	"fmt"
	"math"
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"labstor/internal/core"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

// Worker drains request queues and executes LabStack DAGs. A worker owns a
// virtual clock: requests it processes serialize on that clock, so worker
// overload, queueing delay and head-of-line blocking show up in modeled
// latency exactly as they would on a dedicated core.
type Worker struct {
	rt *Runtime
	id int

	exec *core.Exec

	clock     vtime.Clock
	busy      atomic.Int64 // cumulative modeled CPU ns
	processed atomic.Int64

	// Telemetry: poll-loop accounting (atomic adds on worker-owned state).
	polls      atomic.Int64 // pollOnce scans
	emptyPolls atomic.Int64 // scans that found no work
	parks      atomic.Int64 // transitions from busy-polling to parked

	// spin is the idle spin window in wall ns (nextSpin). Only run writes
	// it; it is atomic so Stats can read it.
	spin atomic.Int64

	active atomic.Bool
	// p parks the idle worker; submit, activation, assignment and Restart ring it.
	p parker

	begin vtime.Time // service start of the request in execution (serve)

	// queues assigned by the orchestrator (copy-on-write).
	queues atomic.Pointer[[]*QP]

	// batchBuf is the reusable drain buffer: up to len(batchBuf)
	// (Options.Batch) requests are taken from a queue per scan with one
	// vectored ring reservation.
	batchBuf []*Request

	// folder is this worker's front to the runtime's Profile: every
	// completed request folds into it, and its per-op deltas publish to the
	// shared Profile on idle scans, before a park and every few hundred
	// requests. Worker-owned: only touched from the run goroutine.
	folder *telemetry.Folder

	// tails tracks a rolling latency quantile per stack this worker drains;
	// requests above the estimate are retained in the tracer's tail ring.
	// The last-used estimator is cached so the common one-stack-per-queue
	// case skips the map.
	tails      map[int]*telemetry.TailEstimator
	tailLast   *telemetry.TailEstimator
	tailLastID int
}

func newWorker(rt *Runtime, id int) *Worker {
	w := &Worker{
		rt:       rt,
		id:       id,
		p:        newParker(),
		batchBuf: make([]*Request, rt.opts.Batch),
		folder:   rt.profile.NewFolder(func(op uint8) string { return core.Op(op).String() }),
		tails:    make(map[int]*telemetry.TailEstimator),
	}
	w.exec = core.NewExec(rt.Registry, rt.Namespace, rt.opts.Model, id)
	w.exec.Admit = w.admit
	empty := []*QP{}
	w.queues.Store(&empty)
	return w
}

// tailFor returns (creating on first use) this worker's tail estimator for a
// stack. Worker-owned state: no locking.
func (w *Worker) tailFor(stackID int) *telemetry.TailEstimator {
	if w.tailLast != nil && w.tailLastID == stackID {
		return w.tailLast
	}
	te, ok := w.tails[stackID]
	if !ok {
		te = telemetry.NewTailEstimator(telemetry.DefaultTailQuantile)
		w.tails[stackID] = te
	}
	w.tailLast, w.tailLastID = te, stackID
	return te
}

func (w *Worker) setActive(a bool) {
	if prev := w.active.Swap(a); prev != a {
		// Activation transitions only, so repeated rebalance decisions that
		// keep a worker's state do not spam the flight recorder.
		verb := "activated"
		if !a {
			verb = "parked"
		}
		w.rt.events.Recordf(telemetry.EvWorker, w.clock.Now(), "worker %d %s", w.id, verb)
	}
	if a {
		w.p.ring()
	}
}

func (w *Worker) isActive() bool { return w.active.Load() }

func (w *Worker) assign(qs []*QP) {
	cp := make([]*QP, len(qs))
	copy(cp, qs)
	w.queues.Store(&cp)
	w.p.ring()
}

func (w *Worker) assigned() []*QP { return *w.queues.Load() }

// run is the worker's polling loop. Workers busy-poll their queues (the
// paper's polling workers), yielding the processor between empty scans, but
// only while the wall time since the worker went idle is inside its spin
// window (nextSpin); past it the worker parks (the paper's parking) and is
// rung by clients on submit or by the orchestrator on assignment. Once
// parked, a wake that finds no work parks again at once: an idle runtime
// does not spin after every backstop. The worker returns from a park that
// Shutdown's rt.stop ends: a stopped runtime is not Running, so its workers
// park.
func (w *Worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	// Publish any attribution deltas still pending when the worker exits
	// (shutdown with fewer than folderFlushEvery requests since the last
	// idle scan).
	defer w.folder.Flush()
	defer w.rt.flightOnPanic(fmt.Sprintf("worker %d", w.id))
	var idleSince time.Time // zero while the last scan found work
	parked := false         // the current idle period has parked
	for {
		if !w.isActive() || !w.rt.Running() {
			// Parked, decommissioned, Runtime crashed or stopped: publish
			// what the folder holds, then block until woken or stopped.
			w.folder.Flush()
			if w.p.park(w.rt.stop) == stopped {
				return
			}
			continue
		}
		if w.pollOnce() {
			if !idleSince.IsZero() {
				win := nextSpin(time.Duration(w.spin.Load()), time.Since(idleSince), parked)
				w.spin.Store(int64(win))
				idleSince, parked = time.Time{}, false
			}
			continue
		}
		if !parked {
			now := time.Now()
			if idleSince.IsZero() {
				idleSince = now
			}
			if now.Sub(idleSince) < time.Duration(w.spin.Load()) {
				gort.Gosched()
				continue
			}
		}
		w.parks.Add(1)
		parked = true
		if w.p.park(w.rt.stop) == stopped {
			return
		}
	}
}

// The idle spin window's bounds. Constants, not options: a spinMax of 8 or
// 16 µs measured alike on every benchmark workload; 32 µs lost kv_routed
// 15%, whose idle periods then fall inside the window (EXPERIMENTS.md
// "Adaptive worker spin").
const (
	spinMax   = 16 * time.Microsecond
	spinStart = 2 * time.Microsecond
)

// nextSpin is KVM halt-polling's grow/shrink rule (halt_poll_ns) applied to
// the worker's idle spin: given the window win and an idle period of length
// idle that found work during the spin (!parked) or after a park, it returns
// the next window. A hit in the spin leaves the window as it is. A park
// ended by work within spinMax is one a longer spin would have caught, so
// the window doubles (from 0 it opens at spinStart), up to spinMax. An idle
// period longer than spinMax no permitted spin could catch, so the window
// halves, and closes below spinStart: the next request is not coming soon,
// and spinning only takes the processor from the goroutines bringing it.
func nextSpin(win, idle time.Duration, parked bool) time.Duration {
	switch {
	case !parked:
		return win
	case idle > spinMax && win/2 < spinStart:
		return 0
	case idle > spinMax:
		return win / 2
	case win < spinStart:
		return spinStart
	default:
		return min(2*win, spinMax)
	}
}

// pollOnce scans assigned queues once, draining up to Options.Batch
// requests per queue. It returns whether any request was processed.
func (w *Worker) pollOnce() bool {
	w.polls.Add(1)
	any := false
	for _, qp := range w.assigned() {
		// One ring reservation for the whole run, whatever its length.
		n := qp.PollSQBatch(w.batchBuf)
		if n == 0 {
			continue
		}
		any = true
		w.processBatch(qp, w.batchBuf[:n])
	}
	if !any {
		w.emptyPolls.Add(1)
		// Idle scan: publish attribution deltas so readers (/profile,
		// snapshots) see counts that are current to the last burst. Flush
		// no-ops when nothing is pending.
		w.folder.Flush()
	}
	return any
}

// processBatch walks a drained run of requests through their stacks and
// publishes each completion as its walk ends: the request's CQ entry, then
// its completion word (MarkDone), before the next request of the run starts.
// A waiter therefore sees its request done without waiting for the rest of
// the drain. Requests execute one at a time and serialize individually on
// the worker's virtual clock; the batch only amortizes the host-side
// bookkeeping around them, which stays once per drain: the SQ reservation
// (already taken by the caller), worker counters, the orchestrator
// observation (one mutex acquisition per batch) and the batch-size
// histogram. That bookkeeping lands before the drain's last completion, so
// a client that has seen all of its drained requests done also sees them
// counted (a drain holds one client's queue).
func (w *Worker) processBatch(qp *QP, reqs []*Request) {
	base := w.processed.Load()
	var totalCPU vtime.Duration
	last := len(reqs) - 1
	for i, req := range reqs {
		cpuUsed, sampled := w.executeOne(qp, req, base+int64(i))
		totalCPU += cpuUsed
		if sampled {
			req.Trace = false
		}
		if i == last {
			w.busy.Add(int64(totalCPU))
			w.processed.Add(int64(len(reqs)))
			w.rt.orch.ObserveBatch(qp.ID, len(reqs), totalCPU)
			w.rt.hBatch.Observe(float64(len(reqs)))
		}
		// MarkDone is the last touch (DESIGN.md §9 rule 1): the waiter may
		// recycle req the moment its word reads done, so everything read of
		// it is read above, and the drain buffer lets go of it first. A
		// request whose CQ slot does not fit (completion ring full) is
		// signalled by MarkDone alone.
		qp.CompleteBatch(reqs[i : i+1])
		reqs[i] = nil
		req.MarkDone()
	}
}

// executeOne performs the per-request portion of the hot path: sampling
// decision, IPC charge, FCFS serialization on the worker clock, the stack
// walk, and trace capture. seq is the request's position in the worker's
// processed sequence (feeding the 1-in-N sampler). It returns the charged
// CPU time and whether the request was sampled (caller clears req.Trace
// after completion bookkeeping).
func (w *Worker) executeOne(qp *QP, req *Request, seq int64) (cpuUsed vtime.Duration, sampled bool) {
	model := w.rt.opts.Model

	// Sample a fraction of requests with tracing on to feed the Runtime's
	// per-stage performance counters.
	if n := w.rt.opts.PerfSampleEvery; n > 0 && !req.Trace && seq%int64(n) == 0 {
		req.Trace = true
		sampled = true
	}

	// The request's cacheline must be transferred from the submitting
	// core's cache (or DRAM) — the paper's measured IPC cost.
	req.Charge("ipc", model.IPCRoundTrip)

	// CPU cost is tracked on the request; device stages only advance its
	// clock. Every Submit ends in admit, which serves req on the worker's
	// clock (FCFS).
	cpuBefore := req.CPUTime
	stack, ok := w.rt.Namespace.ByID(req.StackID)
	if ok {
		if err := w.rt.walk(w.exec, stack, req, math.MaxInt64); err != nil && req.Err == nil {
			req.Err = err
		}
	} else {
		w.serve(req)
		if req.Err == nil {
			req.Err = errNoStack(req.StackID)
		}
	}
	begin := w.begin
	cpuUsed = req.CPUTime - cpuBefore

	// The worker was busy for the software portion of the walk; device
	// service overlaps with the worker polling other queues.
	w.clock.AdvanceTo(begin.Add(cpuUsed))

	// The one completion record: the folder counts the request against its
	// stack (the exact stack.requests/stack.errors counters) and folds its
	// coarse anatomy (latency = queue wait + CPU + device) — plain integer
	// adds on worker-owned state plus the counters' atomic adds.
	mount := ""
	if ok {
		mount = stack.Mount
	}
	lat := req.Clock.Sub(req.Arrival)
	w.folder.Fold(req.StackID, mount, uint8(req.Op), int64(lat),
		int64(begin.Sub(req.Arrival)), int64(cpuUsed), req.Err != nil)

	// Every completion passes the rolling per-stack quantile estimator, so
	// outliers are kept whatever the 1-in-N sampler picked; errors are
	// always kept. A request that qualifies for any ring has its trace
	// built once.
	tail := w.tailFor(req.StackID).Observe(float64(lat))
	if sampled || tail || req.Err != nil {
		w.rt.retain(w.id, qp.ID, mount, req, begin, sampled, tail)
	}
	return cpuUsed, sampled
}

// serve is FCFS serialization on the worker's virtual clock: req starts
// service at its arrival or when the worker is free, whichever is later.
func (w *Worker) serve(req *Request) {
	w.begin = vtime.MaxTime(req.Clock, w.clock.Now())
	req.AdvanceTo(w.begin)
}

// admit is the worker's Exec.Admit. It serves req when the walk would start,
// so a request held at an upgrade's gate starts after the upgrade window
// that Upgrade adds to every worker clock.
func (w *Worker) admit(req *Request) error {
	w.serve(req)
	return w.rt.admit(req)
}

type errNoStackT int

func errNoStack(id int) error { return errNoStackT(id) }

func (e errNoStackT) Error() string { return fmt.Sprintf("runtime: unknown stack id %d", int(e)) }
