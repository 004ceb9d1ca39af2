// Package runtime implements the LabStor Runtime: the userspace
// semi-microkernel that stores, executes, upgrades and repairs LabStacks.
//
// It reproduces the paper's architecture (§III-C):
//
//   - IPC Manager — clients connect with process credentials and obtain
//     shared-memory queue pairs (internal/ipc) over which requests flow;
//   - Workers — polling threads that drain request queues and walk LabStack
//     DAGs via core.Exec;
//   - Work Orchestrator — assigns queues to workers under a pluggable
//     policy (round-robin or the paper's dynamic latency/compute
//     partitioning) and scales the worker pool;
//   - Module Manager — holds the Module Registry and executes the
//     centralized and decentralized live-upgrade protocols, gating only
//     the stacks that reach the upgraded module (quiesce);
//   - LabStack Namespace — mount/modify/unmount of stacks;
//   - Crash recovery — the Runtime can crash and be restarted while
//     clients block in Wait; Restart waits for the walks in progress to
//     end, invokes StateRepair on every LabMod, and clients continue.
//
// Performance is accounted in virtual time (see internal/vtime): each
// worker and client owns a virtual clock, so modeled latency, throughput,
// queueing and CPU utilization are deterministic and host-independent.
package runtime

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/spec"
	"labstor/internal/stats"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

// ErrStopped is returned after a clean Shutdown.
var ErrStopped = errors.New("runtime: runtime is stopped")

// Request is the queue payload type alias used throughout the runtime.
type Request = core.Request

// QP is a queue pair carrying requests.
type QP = ipc.QueuePair[*core.Request]

// Options configures a Runtime.
type Options struct {
	// MaxWorkers is the size of the worker pool (paper: Runtime workers
	// configured per experiment). The orchestrator may activate fewer.
	MaxWorkers int
	// InitialWorkers is the number of workers active at start
	// (default MaxWorkers).
	InitialWorkers int
	// QueueDepth is the per-queue-pair ring depth.
	QueueDepth int
	// Batch is the worker's drain width: the most requests it takes from
	// one queue per poll scan with one SQ and one CQ reservation (default
	// 1, clamped to QueueDepth). Wider drains amortize ring reservations,
	// telemetry and orchestrator observation. Requests are still executed
	// and serialized on the worker clock one at a time, so modeled virtual
	// time is identical at any width.
	Batch int
	// Policy selects the orchestration policy ("round_robin" or "dynamic").
	Policy string
	// RebalanceEvery is the orchestrator epoch (wall time). 0 disables the
	// periodic rebalance (experiments call Rebalance explicitly).
	RebalanceEvery time.Duration
	// UpgradePoll is the control loop's upgrade-queue polling period.
	UpgradePoll time.Duration
	// Model is the virtual-time cost model (vtime.Default() if nil).
	Model *vtime.CostModel
	// LatencyCutoff divides latency-sensitive from computational queues in
	// the dynamic policy.
	LatencyCutoff vtime.Duration
	// LossThreshold is the dynamic policy's tolerated per-worker overload.
	LossThreshold float64
	// MaxReposPerUser bounds mount.repo per UID (0 = unlimited).
	MaxReposPerUser int
	// PerfSampleEvery traces one request in N for per-stage performance
	// counters, request histograms and the trace ring. 0 means the default
	// (64); a negative value disables sampling entirely.
	PerfSampleEvery int
	// SLOs are the per-stack service-level targets the watchdog evaluates.
	SLOs []SLOTarget
	// SLOCheckEvery is the watchdog evaluation period (default 100ms).
	SLOCheckEvery time.Duration
}

// PerfSamplingDisabled is the PerfSampleEvery value that turns sampling off.
const PerfSamplingDisabled = -1

func (o *Options) fill() {
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = 4
	}
	if o.InitialWorkers <= 0 || o.InitialWorkers > o.MaxWorkers {
		o.InitialWorkers = o.MaxWorkers
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.Batch <= 0 {
		o.Batch = 1
	}
	if o.Batch > o.QueueDepth {
		o.Batch = o.QueueDepth
	}
	if o.Policy == "" {
		o.Policy = "round_robin"
	}
	if o.UpgradePoll <= 0 {
		o.UpgradePoll = time.Millisecond
	}
	if o.Model == nil {
		o.Model = vtime.Default()
	}
	if o.LatencyCutoff <= 0 {
		o.LatencyCutoff = 100 * vtime.Microsecond
	}
	if o.LossThreshold <= 0 {
		o.LossThreshold = 0.1
	}
	if o.PerfSampleEvery == 0 {
		o.PerfSampleEvery = 64
	}
	if o.SLOCheckEvery <= 0 {
		o.SLOCheckEvery = 100 * time.Millisecond
	}
}

// FromConfig builds Options from a parsed RuntimeConfig.
func FromConfig(cfg *spec.RuntimeConfig) Options {
	opts := Options{
		MaxWorkers:      cfg.Workers,
		QueueDepth:      cfg.QueueDepth,
		Batch:           cfg.Batch,
		Policy:          cfg.Orchestrator.Policy,
		RebalanceEvery:  time.Duration(cfg.Orchestrator.RebalanceMs) * time.Millisecond,
		UpgradePoll:     time.Duration(cfg.UpgradePollMs) * time.Millisecond,
		LatencyCutoff:   vtime.Duration(cfg.Orchestrator.LatencyCutoffUs) * vtime.Microsecond,
		LossThreshold:   cfg.Orchestrator.LossThreshold,
		MaxReposPerUser: cfg.MaxReposPerUser,
		PerfSampleEvery: cfg.PerfSampleEvery,
		SLOCheckEvery:   time.Duration(cfg.Observe.SLOCheckMs) * time.Millisecond,
	}
	for _, s := range cfg.SLOs {
		opts.SLOs = append(opts.SLOs, SLOTarget{Stack: s.Stack, P99US: s.P99Us, MaxErrRate: s.MaxErrRate})
	}
	return opts
}

// runtime lifecycle states.
const (
	stateRunning int32 = iota
	stateCrashed
	stateStopped
)

// Runtime is the LabStor Runtime instance.
type Runtime struct {
	opts Options

	Env       *core.Env
	Registry  *core.Registry
	Namespace *core.Namespace

	modMgr  *ModManager
	orch    *Orchestrator
	repoMgr *core.RepoManager

	// metrics is the runtime-wide metrics registry (shared with Env so
	// LabMods publish op counters into the same tree); tracer keeps the
	// bounded rings of sampled, errored and tail-outlier request traces;
	// events is the flight recorder — the bounded blackbox of structured
	// runtime events.
	metrics *telemetry.Registry
	tracer  *telemetry.Tracer
	events  *telemetry.FlightRecorder

	// profile is the one record of completed requests: workers fold every
	// completion into it through worker-local Folders, and the stack.*
	// metrics, SLO evaluation, PerfCounters and Attribution read from it.
	profile *telemetry.Profile

	// onBreach hooks run (each on its own goroutine) when an SLO target
	// transitions into breach — the incident-bundle capture path.
	breachMu sync.Mutex
	onBreach []func(SLOStatus)

	// slo is the SLO watchdog (nil when no targets are configured).
	slo *sloWatchdog

	// flightDumpW receives the flight-recorder tail on panic or fatal
	// error (os.Stderr unless redirected by tests).
	flightDumpMu sync.Mutex
	flightDumpW  io.Writer

	// Cached metric handles for the sampled-request path.
	mTail      *telemetry.Counter
	mSampled   *telemetry.Counter
	hLatencyUS *stats.Histogram
	hWaitUS    *stats.Histogram
	hCPUUS     *stats.Histogram
	// hBatch observes the size of each worker drain (1..Options.Batch).
	hBatch *stats.Histogram

	// bufArena is the runtime-owned registered-buffer arena (the io_uring
	// registered-buffer analogue): clients acquire payload handles from it
	// so data lives in ipc.Segment-backed memory end to end. Created lazily
	// on first AcquireBuffer.
	bufArenaOnce sync.Once
	bufArena     *core.SegArena

	mu      sync.Mutex
	workers []*Worker
	clients map[int]*Client
	nextCli int
	nextQP  int

	// ctl is the control plane's lock: every rebalance (and the queue-list
	// change that triggers it), upgrade batch, stack edit and crash repair
	// holds it from start to finish, so control decisions apply one at a
	// time. The data path never takes it.
	ctl sync.Mutex

	state atomic.Int32
	stop  chan struct{}
	wg    sync.WaitGroup
}

// New creates a Runtime with the given options.
func New(opts Options) *Runtime {
	opts.fill()
	rt := &Runtime{
		opts:      opts,
		Env:       core.NewEnv(opts.Model),
		Registry:  core.NewRegistry(),
		Namespace: core.NewNamespace(),
		clients:   make(map[int]*Client),
		stop:      make(chan struct{}),
	}
	rt.metrics = rt.Env.Metrics
	rt.tracer = telemetry.NewTracer()
	rt.profile = telemetry.NewProfileIn(rt.metrics)
	rt.events = telemetry.NewFlightRecorder()
	rt.flightDumpW = os.Stderr
	if len(opts.SLOs) > 0 {
		rt.slo = newSLOWatchdog(rt, opts.SLOs)
	}
	rt.mTail = rt.metrics.Counter("runtime.tail_retained")
	rt.mSampled = rt.metrics.Counter("runtime.sampled_requests")
	rt.hLatencyUS = rt.metrics.Histogram("request.latency_us")
	rt.hWaitUS = rt.metrics.Histogram("request.queue_wait_us")
	rt.hCPUUS = rt.metrics.Histogram("request.cpu_us")
	rt.hBatch = rt.metrics.Histogram("worker.batch_size")
	rt.modMgr = newModManager(rt)
	rt.orch = newOrchestrator(rt)
	rt.repoMgr = core.NewRepoManager(opts.MaxReposPerUser, 0)
	for i := 0; i < opts.MaxWorkers; i++ {
		rt.workers = append(rt.workers, newWorker(rt, i))
	}
	return rt
}

// Start launches the workers and the control loop.
func (rt *Runtime) Start() {
	rt.state.Store(stateRunning)
	rt.events.Recordf(telemetry.EvRuntime, rt.vnow(), "runtime started: %d/%d workers, policy=%s",
		rt.opts.InitialWorkers, rt.opts.MaxWorkers, rt.opts.Policy)
	for i, w := range rt.workers {
		active := i < rt.opts.InitialWorkers
		w.setActive(active)
		rt.wg.Add(1)
		go w.run(&rt.wg)
	}
	rt.wg.Add(1)
	go rt.controlLoop()
}

// Shutdown stops the Runtime cleanly.
func (rt *Runtime) Shutdown() {
	if !rt.state.CompareAndSwap(stateRunning, stateStopped) {
		rt.state.Store(stateStopped)
	}
	rt.events.Recordf(telemetry.EvRuntime, rt.vnow(), "runtime shutdown")
	close(rt.stop)
	for _, w := range rt.workers {
		w.stop()
	}
	rt.wg.Wait()
}

// Crash simulates a Runtime crash (paper §III-C3): workers halt abruptly,
// queues freeze, clients observing Wait see the Runtime offline.
func (rt *Runtime) Crash() {
	rt.state.Store(stateCrashed)
	rt.events.Recordf(telemetry.EvRuntime, rt.vnow(), "runtime crashed")
}

// Restart repairs and resumes a crashed Runtime: module state is repaired
// via StateRepair and workers resume draining the frozen queues. Walks in
// progress when the crash hit finish first, and no walk starts while the
// runtime is crashed (admit), so repair never races a mutation.
func (rt *Runtime) Restart() error {
	rt.ctl.Lock()
	defer rt.ctl.Unlock()
	if rt.state.Load() != stateCrashed {
		return fmt.Errorf("runtime: not crashed")
	}
	if !rt.waitUntil(2*time.Second, func() bool { return !rt.walking(nil, nil) }) {
		return fmt.Errorf("runtime: in-flight requests did not drain before restart")
	}
	if err := rt.Registry.RepairAll(); err != nil {
		rt.events.Recordf(telemetry.EvRuntime, rt.vnow(), "runtime restart failed: %v", err)
		return err
	}
	rt.state.Store(stateRunning)
	rt.events.Recordf(telemetry.EvRuntime, rt.vnow(), "runtime restarted after crash")
	return nil
}

// errCrashed is admit's answer while the runtime is crashed.
var errCrashed = errors.New("runtime: runtime is crashed")

// admit is every walker's Exec.Admit: a walk starts only while the runtime
// runs. The slot names the walk first, so Restart sees it or it sees the crash.
func (rt *Runtime) admit(*Request) error {
	switch rt.state.Load() {
	case stateCrashed:
		return errCrashed
	case stateStopped:
		return ErrStopped
	}
	return nil
}

// walk submits req to s on exec and, while the runtime is crashed, waits
// for its restart — for up to patience — and submits it again.
func (rt *Runtime) walk(exec *core.Exec, s *core.Stack, req *Request, patience time.Duration) error {
	err := exec.Submit(s, req)
	if err == errCrashed {
		deadline := time.Now().Add(patience)
		for err == errCrashed {
			if err = rt.awaitRestart(deadline); err == nil {
				err = exec.Submit(s, req)
			}
		}
	}
	return err
}

// awaitRestart waits while the runtime is crashed, until deadline.
func (rt *Runtime) awaitRestart(deadline time.Time) error {
	for rt.Crashed() {
		if time.Now().After(deadline) {
			return ErrWaitTimeout
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// walking reports whether a worker or connected client walks a plan that
// reaches uuids or mounts (core.Plan.Reaches); any plan if uuids is nil.
func (rt *Runtime) walking(uuids, mounts map[string]bool) bool {
	in := func(e *core.Exec) bool {
		p := e.Walking()
		return p != nil && (uuids == nil || p.Reaches(uuids, mounts))
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, w := range rt.workers {
		if in(w.exec) {
			return true
		}
	}
	for _, c := range rt.clients {
		if in(c.syncExec) {
			return true
		}
	}
	return false
}

// waitUntil polls cond until it holds (true), or d has passed or the
// runtime has stopped (false).
func (rt *Runtime) waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) || rt.state.Load() == stateStopped {
			return false
		}
		time.Sleep(20 * time.Microsecond)
	}
	return true
}

// quiesceTimeout bounds how long quiesce waits for walkers to leave.
const quiesceTimeout = 500 * time.Millisecond

// errNotQuiet is quiesce's answer when the walkers did not leave in time.
var errNotQuiet = fmt.Errorf("runtime: walkers did not leave the upgraded stacks within %v", quiesceTimeout)

// quiesce runs apply while no request is inside a module named in uuids:
// the paper's pause → drain → apply → resume (§III-C2), per stack. It gates
// the stacks whose plan holds one of uuids or reaches such a stack through
// "stack:" outputs, waits until no walker's slot, async or sync, holds a
// plan that reaches them, runs apply and reopens the stacks. If the walkers
// have not left after quiesceTimeout, or the runtime stops, it reopens them
// without applying, records a flight event and returns errNotQuiet.
func (rt *Runtime) quiesce(uuids map[string]bool, apply func() error) error {
	gate := make(chan struct{})
	defer close(gate) // after every stack's plan is back
	mounts := map[string]bool{}
	for grew := true; grew; {
		grew = false
		for _, s := range rt.Namespace.Stacks() {
			if !mounts[s.Mount] && s.Plan().Reaches(uuids, mounts) {
				mounts[s.Mount], grew = true, true
				defer s.Gate(gate)() // reopens at return
			}
		}
	}
	if !rt.waitUntil(quiesceTimeout, func() bool { return !rt.walking(uuids, mounts) }) {
		rt.events.Recordf(telemetry.EvRuntime, rt.vnow(), "upgrade aborted: %v", errNotQuiet)
		return errNotQuiet
	}
	return apply()
}

// Running reports whether the Runtime is processing requests.
func (rt *Runtime) Running() bool { return rt.state.Load() == stateRunning }

// Crashed reports whether the Runtime is in the crashed state.
func (rt *Runtime) Crashed() bool { return rt.state.Load() == stateCrashed }

// Model returns the cost model.
func (rt *Runtime) Model() *vtime.CostModel { return rt.opts.Model }

// Options returns the active options.
func (rt *Runtime) Options() Options { return rt.opts }

// AddDevice registers a simulated device with the module environment.
func (rt *Runtime) AddDevice(d *device.Device) { rt.Env.AddDevice(d) }

// ModManager exposes the Module Manager (upgrade API).
func (rt *Runtime) ModManager() *ModManager { return rt.modMgr }

// Orchestrator exposes the Work Orchestrator.
func (rt *Runtime) Orchestrator() *Orchestrator { return rt.orch }

// --- repos & performance counters ---------------------------------------------

// MountRepo registers a LabMod repo's types (the paper's unprivileged
// `mount.repo`), subject to the per-user quota.
func (rt *Runtime) MountRepo(r *core.Repo) error { return rt.repoMgr.Mount(r) }

// UnmountRepo removes a repo (`unmount.repo`). uid 0 may remove any.
func (rt *Runtime) UnmountRepo(name string, uid int) error { return rt.repoMgr.Unmount(name, uid) }

// Repos lists mounted repos.
func (rt *Runtime) Repos() []string { return rt.repoMgr.Repos() }

// buildTrace assembles a telemetry.Trace from a completed request — spans
// from the request's stage anatomy, queue wait from the worker's service
// start.
func buildTrace(workerID, queueID int, stackMount string, req *core.Request, start vtime.Time) telemetry.Trace {
	spans := make([]telemetry.Span, len(req.Stages))
	for i, st := range req.Stages {
		spans[i] = telemetry.Span{Stage: st.Stage, Cost: st.Cost}
	}
	tr := telemetry.Trace{
		ReqID:     req.ID,
		Op:        req.Op.String(),
		Stack:     stackMount,
		StackID:   req.StackID,
		Queue:     queueID,
		Worker:    workerID,
		Arrival:   req.Arrival,
		Start:     start,
		End:       req.Clock,
		QueueWait: start.Sub(req.Arrival),
		CPU:       req.CPUTime,
		Spans:     spans,
	}
	if req.Err != nil {
		tr.Err = req.Err.Error()
	}
	return tr
}

// retain builds a completed request's trace once and keeps it everywhere
// it qualifies: a sampled request feeds the request-level histograms and
// the stage tables, an errored one becomes a flight event, and the tracer
// keeps it in each of its sampled, error and tail rings that apply.
func (rt *Runtime) retain(workerID, queueID int, stackMount string, req *core.Request, start vtime.Time, sampled, tail bool) {
	tr := buildTrace(workerID, queueID, stackMount, req, start)
	rt.tracer.Capture(tr, sampled, tail)
	if sampled {
		rt.mSampled.Inc()
		rt.hLatencyUS.Observe(tr.Latency().Micros())
		rt.hWaitUS.Observe(tr.QueueWait.Micros())
		rt.hCPUUS.Observe(tr.CPU.Micros())
		rt.profile.FoldSpans(req.StackID, stackMount, tr)
	}
	if tail {
		rt.mTail.Inc()
		rt.profile.TailNote(req.StackID, stackMount)
	}
	if tr.Err != "" {
		rt.events.Record(telemetry.EvRequestError,
			fmt.Sprintf("request %d failed: %s", tr.ReqID, tr.Err), tr.End,
			map[string]string{"stack": tr.Stack, "op": tr.Op, "err": tr.Err})
	}
}

// Metrics exposes the runtime-wide metrics registry.
func (rt *Runtime) Metrics() *telemetry.Registry { return rt.metrics }

// Tracer exposes the request tracer.
func (rt *Runtime) Tracer() *telemetry.Tracer { return rt.tracer }

// Traces returns the retained sampled-request traces, oldest first.
func (rt *Runtime) Traces() []telemetry.Trace { return rt.tracer.Recent() }

// TailTraces returns the retained tail-outlier traces, oldest first.
func (rt *Runtime) TailTraces() []telemetry.Trace { return rt.tracer.RecentTail() }

// Profile returns the record of completed requests.
func (rt *Runtime) Profile() *telemetry.Profile { return rt.profile }

// Attribution returns the per-stack latency-attribution tables. Workers
// publish their folded deltas when idle or parked (and every few hundred
// requests), so a snapshot taken mid-burst can trail the true counts
// slightly.
func (rt *Runtime) Attribution() []telemetry.StackAttribution { return rt.profile.Snapshot() }

// PerfCounter is one pipeline stage's sampled cost statistics.
type PerfCounter = telemetry.StageCounter

// PerfCounters returns the sampled per-stage performance counters (the
// Profile's stage tables summed over every stack).
func (rt *Runtime) PerfCounters() []PerfCounter { return rt.profile.StageCounters() }

// --- mount & stack management ------------------------------------------------

// MountSpec parses a LabStack spec document, instantiates its LabMods and
// mounts the stack (the paper's `mount.stack`).
func (rt *Runtime) MountSpec(src string) (*core.Stack, error) {
	ss, err := spec.ParseStack(src)
	if err != nil {
		return nil, err
	}
	return rt.Mount(ss.Stack())
}

// Mount instantiates the stack's LabMods in the Module Registry (a LabMod
// is only instantiated if its UUID is new), validates the composition and
// inducts the stack into the Namespace.
func (rt *Runtime) Mount(s *core.Stack) (*core.Stack, error) {
	// Untrusted LabMods (from untrusted repos) may not execute inside the
	// Runtime's address space: they are confined to client-side (sync)
	// execution (paper §III-D).
	if s.Rules.ExecMode == core.ExecAsync {
		for _, v := range s.Vertices() {
			if !rt.repoMgr.TrustedType(v.Type) {
				return nil, fmt.Errorf("runtime: untrusted LabMod type %q may only run in a sync (client-side) stack", v.Type)
			}
		}
	}
	for _, v := range s.Vertices() {
		if _, err := rt.Registry.Instantiate(v.UUID, v.Type, core.Config{Attrs: v.Attrs}, rt.Env); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(rt.Registry); err != nil {
		return nil, err
	}
	if err := rt.Namespace.Mount(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Unmount removes a stack from the namespace.
func (rt *Runtime) Unmount(mount string) error { return rt.Namespace.Unmount(mount) }

// ModifyStack applies a dynamic DAG edit (the paper's `modify_stack`):
// inserting a vertex instantiates its module if needed. The edited DAG is
// validated, then published without waiting: a request walks the plan it
// pinned to its end, and an edit transfers no state. It holds ctl.
func (rt *Runtime) ModifyStack(mount string, insertAfter string, v *core.Vertex, remove string) error {
	rt.ctl.Lock()
	defer rt.ctl.Unlock()
	s, ok := rt.Namespace.Lookup(mount)
	if !ok {
		return fmt.Errorf("runtime: nothing mounted at %q", mount)
	}
	if v != nil {
		if _, err := rt.Registry.Instantiate(v.UUID, v.Type, core.Config{Attrs: v.Attrs}, rt.Env); err != nil {
			return err
		}
	}
	return s.Modify(rt.Registry, insertAfter, v, remove)
}

// --- control loop -------------------------------------------------------------

// controlLoop is the Runtime's one control goroutine: it polls the upgrade
// queue every UpgradePoll, rebalances every RebalanceEvery and evaluates the
// SLO targets every SLOCheckEvery, while the Runtime is running. A disabled
// ticker is a nil channel, which select never picks.
func (rt *Runtime) controlLoop() {
	defer rt.wg.Done()
	defer rt.flightOnPanic("control loop")
	upgrades, stopUpgrades := ticker(rt.opts.UpgradePoll)
	defer stopUpgrades()
	rebalances, stopRebalances := ticker(rt.opts.RebalanceEvery)
	defer stopRebalances()
	sloEvery := rt.opts.SLOCheckEvery
	if rt.slo == nil {
		sloEvery = 0
	}
	slos, stopSLOs := ticker(sloEvery)
	defer stopSLOs()
	for {
		var step func()
		select {
		case <-rt.stop:
			return
		case <-upgrades:
			step = rt.modMgr.ProcessUpgrades
		case <-rebalances:
			step = rt.orch.Rebalance
		case <-slos:
			step = rt.slo.Evaluate
		}
		if rt.Running() {
			step()
		}
	}
}

// ticker returns the channel of a ticker firing every d and the function
// that stops it; for d <= 0 the channel is nil.
func ticker(d time.Duration) (<-chan time.Time, func()) {
	if d <= 0 {
		return nil, func() {}
	}
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// --- flight recorder & postmortems --------------------------------------------

// vnow is the runtime's virtual "now": the furthest worker clock (the global
// virtual frontier). Flight-recorder events are stamped with it so event
// history lines up with modeled request latency.
func (rt *Runtime) vnow() vtime.Time {
	frontier := vtime.Time(0)
	for _, w := range rt.workers {
		if c := w.clock.Now(); c > frontier {
			frontier = c
		}
	}
	return frontier
}

// Events exposes the flight recorder.
func (rt *Runtime) Events() *telemetry.FlightRecorder { return rt.events }

// SLOStatus returns the watchdog's per-target evaluation state (nil when no
// SLO targets are configured).
func (rt *Runtime) SLOStatus() []SLOStatus {
	if rt.slo == nil {
		return nil
	}
	return rt.slo.Status()
}

// EvaluateSLOs forces one watchdog pass (tests and admin tooling; the
// control loop calls it periodically on its own).
func (rt *Runtime) EvaluateSLOs() {
	if rt.slo != nil {
		rt.slo.Evaluate()
	}
}

// OnSLOBreach registers a hook invoked whenever an SLO target transitions
// into breach (not on every breaching evaluation). Each invocation runs on
// its own goroutine, so hooks may do slow work — incident-bundle capture
// profiles the process for hundreds of milliseconds — without stalling the
// watchdog.
func (rt *Runtime) OnSLOBreach(fn func(SLOStatus)) {
	rt.breachMu.Lock()
	rt.onBreach = append(rt.onBreach, fn)
	rt.breachMu.Unlock()
}

// notifyBreach fans a breach transition out to the registered hooks.
func (rt *Runtime) notifyBreach(status SLOStatus) {
	rt.breachMu.Lock()
	hooks := append([]func(SLOStatus){}, rt.onBreach...)
	rt.breachMu.Unlock()
	for _, fn := range hooks {
		go fn(status)
	}
}

// SetFlightDumpWriter redirects the panic/fatal flight-recorder dump
// (os.Stderr by default; tests point it at a buffer).
func (rt *Runtime) SetFlightDumpWriter(w io.Writer) {
	rt.flightDumpMu.Lock()
	rt.flightDumpW = w
	rt.flightDumpMu.Unlock()
}

// DumpFlightTo writes the reason and the retained flight-recorder events to
// w (the configured dump writer when w is nil).
func (rt *Runtime) DumpFlightTo(w io.Writer, reason string) {
	if w == nil {
		rt.flightDumpMu.Lock()
		w = rt.flightDumpW
		rt.flightDumpMu.Unlock()
	}
	fmt.Fprintf(w, "labstor: %s — dumping flight recorder\n", reason)
	rt.events.Dump(w)
}

// flightOnPanic is deferred at the top of every runtime-owned goroutine:
// on panic it records the fault, dumps the flight-recorder tail to the dump
// writer (stderr by default) so the postmortem has history, and re-panics.
func (rt *Runtime) flightOnPanic(where string) {
	if r := recover(); r != nil {
		rt.events.Recordf(telemetry.EvRuntime, rt.vnow(), "panic in %s: %v", where, r)
		rt.DumpFlightTo(nil, fmt.Sprintf("panic in %s: %v", where, r))
		panic(r)
	}
}

// --- introspection ------------------------------------------------------------

// WorkerStats summarises one worker's accounting.
type WorkerStats struct {
	ID        int            `json:"id"`
	Active    bool           `json:"active"`
	Processed int64          `json:"processed"`
	BusyVirt  vtime.Duration `json:"busy_virt_ns"`
	Clock     vtime.Time     `json:"clock_ns"`
	// Polls counts pollOnce scans; EmptyPolls the scans that found no work;
	// Parks how often the worker gave up busy-polling and blocked.
	Polls      int64 `json:"polls"`
	EmptyPolls int64 `json:"empty_polls"`
	Parks      int64 `json:"parks"`
	// SpinWindow is how long the worker currently busy-polls after going
	// idle before it parks (wall time, between 0 and 16 µs).
	SpinWindow time.Duration `json:"spin_window_ns"`
	// Queues is the list of queue-pair IDs currently assigned.
	Queues []int `json:"queues"`
}

// IdleRatio is EmptyPolls over Polls: the share of scans that found no work.
// It is not the share of time the worker was idle — a worker that parks at
// once after each request scans twice per request, and reads 50%.
func (ws WorkerStats) IdleRatio() float64 {
	if ws.Polls == 0 {
		return 0
	}
	return float64(ws.EmptyPolls) / float64(ws.Polls)
}

// Stats returns per-worker statistics.
func (rt *Runtime) Stats() []WorkerStats {
	out := make([]WorkerStats, 0, len(rt.workers))
	for _, w := range rt.workers {
		qs := w.assigned()
		ids := make([]int, len(qs))
		for i, q := range qs {
			ids[i] = q.ID
		}
		out = append(out, WorkerStats{
			ID:         w.id,
			Active:     w.isActive(),
			Processed:  w.processed.Load(),
			BusyVirt:   vtime.Duration(w.busy.Load()),
			Clock:      w.clock.Now(),
			Polls:      w.polls.Load(),
			EmptyPolls: w.emptyPolls.Load(),
			Parks:      w.parks.Load(),
			SpinWindow: time.Duration(w.spin.Load()),
			Queues:     ids,
		})
	}
	return out
}

// BufArena returns the runtime-owned registered-buffer arena, creating it
// on first use. Buffers carved from it live in registered ipc.Segments.
func (rt *Runtime) BufArena() *core.SegArena {
	rt.bufArenaOnce.Do(func() {
		rt.bufArena = core.NewSegArena(rt.Env.Segments, "payload", ipc.Credentials{})
	})
	return rt.bufArena
}

// pokeWorkers nudges parked workers after a submission (non-blocking).
func (rt *Runtime) pokeWorkers() {
	for _, w := range rt.workers {
		if w.isActive() {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
}

// ActiveWorkers returns the number of currently active workers.
func (rt *Runtime) ActiveWorkers() int {
	n := 0
	for _, w := range rt.workers {
		if w.isActive() {
			n++
		}
	}
	return n
}
