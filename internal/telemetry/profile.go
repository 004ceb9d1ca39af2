package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"labstor/internal/stats"
	"labstor/internal/vtime"
)

// This file is the latency-attribution half of the telemetry layer and the
// runtime's one record of completed requests: an always-on aggregator that
// counts *every* completion per stack (the exact stack.requests and
// stack.errors counters), folds its coarse anatomy (latency = queue wait +
// CPU + device) into per-stack/per-op tables, and keeps the sampled
// per-stage detail (p50/p99 per stage, share of total latency) that the
// 1-in-N sampled requests feed it. Per-stack metrics, SLO evaluation, the
// runtime's stage counters and the /profile tables are all read from it.
// The paper's Fig. 4 "request anatomy" argument is that a userspace stack
// lets you *see* where each microsecond goes; Profile is that visibility as
// a queryable table rather than a one-off experiment.
//
// Hot-path discipline: workers reach Profile through a Folder — a
// single-goroutine accumulator whose Fold is the stack's two exact counters'
// atomic adds plus a few plain integer adds against a cached slot — and
// publish the per-op deltas into the shared atomics every folderFlushEvery
// requests or when the worker goes idle or parks. The per-request cost is
// nanoseconds; the per-op cachelines are touched ~1/256th as often as the
// request rate.

// maxProfiledOps bounds the per-op table (core.Op values fit comfortably).
const maxProfiledOps = 32

// folderFlushEvery is how many folded requests a Folder batches before
// publishing deltas to the shared Profile.
const folderFlushEvery = 256

// opAgg is one (stack, op) cell of always-on accumulators. Device time is
// not stored: latency = queue wait + CPU + device holds per request, and the
// identity is linear, so the device sum is derived at read time.
type opAgg struct {
	count  atomic.Int64
	errs   atomic.Int64
	latNS  atomic.Int64
	waitNS atomic.Int64
	cpuNS  atomic.Int64
}

// stageAgg is one pipeline stage's sampled cost distribution within a stack.
type stageAgg struct {
	count atomic.Int64
	sumNS atomic.Int64
	hist  stats.Histogram // microseconds
}

// StackProfile is one stack's completion state inside a Profile.
type StackProfile struct {
	mount string

	// Exact completion counts and the sampled latency histogram (µs), kept
	// in the Profile's registry as stack.requests, stack.errors and
	// stack.latency_us, labelled with the stack's mount.
	requests *Counter
	errors   *Counter
	latency  *stats.Histogram

	ops     [maxProfiledOps]opAgg
	opNames [maxProfiledOps]atomic.Pointer[string]

	// Sampled-span detail (only the 1-in-N traced requests reach these).
	stages        sync.Map // stage string -> *stageAgg
	sampled       atomic.Int64
	sampledWaitNS atomic.Int64
	waitHist      stats.Histogram // queue-wait µs of sampled requests

	tailRetained atomic.Int64
}

func (sp *StackProfile) stageFor(name string) *stageAgg {
	if v, ok := sp.stages.Load(name); ok {
		return v.(*stageAgg)
	}
	v, _ := sp.stages.LoadOrStore(name, &stageAgg{})
	return v.(*stageAgg)
}

// Requests returns the stack's exact completed-request count.
func (sp *StackProfile) Requests() int64 { return sp.requests.Value() }

// Errors returns the stack's exact errored-completion count.
func (sp *StackProfile) Errors() int64 { return sp.errors.Value() }

// Latency returns the sampled requests' latency histogram (µs).
func (sp *StackProfile) Latency() stats.HistogramState { return sp.latency.State() }

// Profile is the shared, concurrent completion table: stack ID → exact
// counters, per-op always-on accumulators and sampled per-stage detail.
// Writers are worker Folders and the sampled-trace path; readers are the
// SLO watchdog, the /profile endpoint, the snapshot tree and `labctl
// profile`.
type Profile struct {
	reg    *Registry
	stacks sync.Map // int -> *StackProfile
}

// NewProfile returns an empty table whose stack.* metrics live in a
// registry of its own.
func NewProfile() *Profile { return NewProfileIn(NewRegistry()) }

// NewProfileIn returns an empty table that registers each stack's stack.*
// metrics in reg.
func NewProfileIn(reg *Registry) *Profile { return &Profile{reg: reg} }

func (p *Profile) stackFor(stackID int, mount string) *StackProfile {
	if v, ok := p.stacks.Load(stackID); ok {
		return v.(*StackProfile)
	}
	label := ";stack=" + mount
	v, _ := p.stacks.LoadOrStore(stackID, &StackProfile{
		mount:    mount,
		requests: p.reg.Counter("stack.requests" + label),
		errors:   p.reg.Counter("stack.errors" + label),
		latency:  p.reg.Histogram("stack.latency_us" + label),
	})
	return v.(*StackProfile)
}

// Stack returns the completion state of the stack mounted at mount (nil
// before its first completion).
func (p *Profile) Stack(mount string) *StackProfile {
	var found *StackProfile
	p.stacks.Range(func(_, v any) bool {
		if sp := v.(*StackProfile); sp.mount == mount {
			found = sp
			return false
		}
		return true
	})
	return found
}

// FoldSpans folds one sampled trace's latency, per-stage spans and queue
// wait into the stack's sampled-detail tables. Called on the 1-in-N sampled
// path only, so histogram inserts here are amortized by the sampling period.
func (p *Profile) FoldSpans(stackID int, mount string, t Trace) {
	sp := p.stackFor(stackID, mount)
	sp.latency.Observe(t.Latency().Micros())
	sp.sampled.Add(1)
	sp.sampledWaitNS.Add(int64(t.QueueWait))
	sp.waitHist.Observe(t.QueueWait.Micros())
	for _, s := range t.Spans {
		sa := sp.stageFor(s.Stage)
		sa.count.Add(1)
		sa.sumNS.Add(int64(s.Cost))
		sa.hist.Observe(s.Cost.Micros())
	}
}

// TailNote counts one tail-retained outlier against the stack.
func (p *Profile) TailNote(stackID int, mount string) {
	p.stackFor(stackID, mount).tailRetained.Add(1)
}

// --- Folder: worker-local delta accumulation ---------------------------------

type folderSlot struct {
	sp *StackProfile
	op uint8

	count, errs          int64
	latNS, waitNS, cpuNS int64
}

// Folder is a single-goroutine (worker-owned) accumulator in front of a
// Profile. Fold is the always-on per-request hot path: a cached-slot lookup,
// the stack's exact counters and plain integer adds — no locks, no
// allocation. Per-op deltas reach the shared Profile on Flush, which the
// owner calls when idle and which Fold triggers itself every
// folderFlushEvery requests.
//
// A Folder must only ever be used from one goroutine.
type Folder struct {
	p      *Profile
	opName func(uint8) string

	cur     *folderSlot
	curKey  uint32
	slots   map[uint32]*folderSlot
	pending int
}

// NewFolder returns a Folder publishing into p. opName resolves an op code
// to its display name; it is called once per (stack, op) slot, never on the
// per-request path.
func (p *Profile) NewFolder(opName func(uint8) string) *Folder {
	return &Folder{p: p, opName: opName, slots: make(map[uint32]*folderSlot)}
}

// Fold records one completed request: the stack's exact counters at once,
// the per-op anatomy as a delta. latNS/waitNS/cpuNS are the request's
// modeled end-to-end latency, queue wait (arrival → service start) and
// charged CPU time within service; device time is derived as
// lat - wait - cpu.
func (f *Folder) Fold(stackID int, mount string, op uint8, latNS, waitNS, cpuNS int64, errored bool) {
	key := uint32(stackID)<<8 | uint32(op)
	s := f.cur
	if s == nil || f.curKey != key {
		s = f.slotFor(key, stackID, mount, op)
	}
	s.sp.requests.Inc()
	s.count++
	if errored {
		s.sp.errors.Inc()
		s.errs++
	}
	s.latNS += latNS
	s.waitNS += waitNS
	s.cpuNS += cpuNS
	f.pending++
	if f.pending >= folderFlushEvery {
		f.Flush()
	}
}

func (f *Folder) slotFor(key uint32, stackID int, mount string, op uint8) *folderSlot {
	s, ok := f.slots[key]
	if !ok {
		s = &folderSlot{sp: f.p.stackFor(stackID, mount), op: op}
		f.slots[key] = s
	}
	f.cur, f.curKey = s, key
	return s
}

// Pending returns the number of folded requests not yet published.
func (f *Folder) Pending() int { return f.pending }

// Flush publishes the accumulated deltas into the shared Profile and resets
// the local slots.
func (f *Folder) Flush() {
	if f.pending == 0 {
		return
	}
	for _, s := range f.slots {
		if s.count == 0 {
			continue
		}
		sp := s.sp
		idx := int(s.op)
		if idx >= maxProfiledOps {
			idx = 0
		}
		agg := &sp.ops[idx]
		agg.count.Add(s.count)
		agg.errs.Add(s.errs)
		agg.latNS.Add(s.latNS)
		agg.waitNS.Add(s.waitNS)
		agg.cpuNS.Add(s.cpuNS)
		if sp.opNames[idx].Load() == nil {
			name := f.opName(s.op)
			sp.opNames[idx].Store(&name)
		}
		s.count, s.errs, s.latNS, s.waitNS, s.cpuNS = 0, 0, 0, 0, 0
	}
	f.pending = 0
}

// --- attribution snapshot ----------------------------------------------------

// OpAttribution is one operation's always-on attribution row.
type OpAttribution struct {
	Op          string  `json:"op"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors,omitempty"`
	MeanUS      float64 `json:"mean_us"`
	TotalUS     float64 `json:"total_us"`
	QueueWaitUS float64 `json:"queue_wait_us"`
	CPUUS       float64 `json:"cpu_us"`
	DeviceUS    float64 `json:"device_us"`
}

// StageAttribution is one pipeline stage's sampled attribution row. The
// pseudo-stage "queue_wait" (wait minus the IPC charge, which is recorded as
// its own "ipc" stage) completes the decomposition, so SharePct across a
// stack's stages sums to ~100% of sampled end-to-end latency.
type StageAttribution struct {
	Stage    string  `json:"stage"`
	Count    int64   `json:"count"`
	TotalUS  float64 `json:"total_us"`
	MeanUS   float64 `json:"mean_us"`
	P50US    float64 `json:"p50_us"`
	P99US    float64 `json:"p99_us"`
	SharePct float64 `json:"share_pct"`
}

// StackAttribution is one stack's full attribution table: the always-on
// coarse split (queue wait / CPU / device, exact over every completed
// request) plus the sampled per-stage detail.
type StackAttribution struct {
	Stack        string `json:"stack"`
	Requests     int64  `json:"requests"`
	Errors       int64  `json:"errors"`
	Sampled      int64  `json:"sampled"`
	TailRetained int64  `json:"tail_retained"`

	TotalLatencyUS float64 `json:"total_latency_us"`
	MeanLatencyUS  float64 `json:"mean_latency_us"`
	QueueWaitPct   float64 `json:"queue_wait_pct"`
	CPUPct         float64 `json:"cpu_pct"`
	DevicePct      float64 `json:"device_pct"`

	Ops    []OpAttribution    `json:"ops"`
	Stages []StageAttribution `json:"stages,omitempty"`
}

// QueueWaitStage is the pseudo-stage name completing the per-stage share
// decomposition (wait time net of the recorded "ipc" span).
const QueueWaitStage = "queue_wait"

// ipcStage is the stage name the runtime charges for the queue-pair round
// trip; it lands inside the queue-wait window, so shares subtract it from
// the pseudo-stage rather than double-counting.
const ipcStage = "ipc"

// Snapshot renders the attribution tables, stacks sorted by mount, ops by
// descending total latency, stages by descending share.
func (p *Profile) Snapshot() []StackAttribution {
	out := []StackAttribution{}
	p.stacks.Range(func(_, v any) bool {
		sp := v.(*StackProfile)
		if sa, ok := sp.attribution(); ok {
			out = append(out, sa)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Stack < out[j].Stack })
	return out
}

func (sp *StackProfile) attribution() (StackAttribution, bool) {
	sa := StackAttribution{
		Stack:        sp.mount,
		Sampled:      sp.sampled.Load(),
		TailRetained: sp.tailRetained.Load(),
	}
	var latNS, waitNS, cpuNS int64
	for i := range sp.ops {
		agg := &sp.ops[i]
		n := agg.count.Load()
		if n == 0 {
			continue
		}
		name := "?"
		if np := sp.opNames[i].Load(); np != nil {
			name = *np
		}
		l, w, c := agg.latNS.Load(), agg.waitNS.Load(), agg.cpuNS.Load()
		dev := l - w - c
		if dev < 0 {
			dev = 0
		}
		sa.Ops = append(sa.Ops, OpAttribution{
			Op:          name,
			Requests:    n,
			Errors:      agg.errs.Load(),
			MeanUS:      nsToUS(l) / float64(n),
			TotalUS:     nsToUS(l),
			QueueWaitUS: nsToUS(w),
			CPUUS:       nsToUS(c),
			DeviceUS:    nsToUS(dev),
		})
		sa.Requests += n
		sa.Errors += agg.errs.Load()
		latNS += l
		waitNS += w
		cpuNS += c
	}
	if sa.Requests == 0 {
		return sa, false
	}
	devNS := latNS - waitNS - cpuNS
	if devNS < 0 {
		devNS = 0
	}
	sa.TotalLatencyUS = nsToUS(latNS)
	sa.MeanLatencyUS = nsToUS(latNS) / float64(sa.Requests)
	if latNS > 0 {
		sa.QueueWaitPct = 100 * float64(waitNS) / float64(latNS)
		sa.CPUPct = 100 * float64(cpuNS) / float64(latNS)
		sa.DevicePct = 100 * float64(devNS) / float64(latNS)
	}
	sort.Slice(sa.Ops, func(i, j int) bool { return sa.Ops[i].TotalUS > sa.Ops[j].TotalUS })
	sa.Stages = sp.stageAttribution()
	return sa, true
}

// stageAttribution builds the sampled per-stage rows plus the queue-wait
// pseudo-stage; shares are normalized so they sum to ~100% of sampled
// end-to-end latency.
func (sp *StackProfile) stageAttribution() []StageAttribution {
	var rows []StageAttribution
	var ipcNS int64
	var spanNS int64 // non-ipc span total
	sp.stages.Range(func(k, v any) bool {
		name := k.(string)
		sa := v.(*stageAgg)
		sum := sa.sumNS.Load()
		st := sa.hist.State()
		rows = append(rows, StageAttribution{
			Stage:   name,
			Count:   sa.count.Load(),
			TotalUS: nsToUS(sum),
			MeanUS:  meanUS(sum, sa.count.Load()),
			P50US:   st.Quantile(0.5),
			P99US:   st.Quantile(0.99),
		})
		if name == ipcStage {
			ipcNS = sum
		} else {
			spanNS += sum
		}
		return true
	})
	if len(rows) == 0 {
		return nil
	}
	// Queue-wait pseudo-stage: sampled wait minus the ipc span recorded
	// inside it.
	qwNS := sp.sampledWaitNS.Load() - ipcNS
	if qwNS < 0 {
		qwNS = 0
	}
	wh := sp.waitHist.State()
	rows = append(rows, StageAttribution{
		Stage:   QueueWaitStage,
		Count:   sp.sampled.Load(),
		TotalUS: nsToUS(qwNS),
		MeanUS:  meanUS(qwNS, sp.sampled.Load()),
		P50US:   wh.Quantile(0.5),
		P99US:   wh.Quantile(0.99),
	})
	denom := float64(qwNS + ipcNS + spanNS)
	if denom > 0 {
		for i := range rows {
			rows[i].SharePct = 100 * rows[i].TotalUS * 1e3 / denom
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SharePct > rows[j].SharePct })
	return rows
}

// StageCounter is one pipeline stage's sampled cost summed over every
// stack.
type StageCounter struct {
	Stage string
	Ops   int64
	Total vtime.Duration
	Mean  vtime.Duration
}

// StageCounters sums each stage's sampled count and cost over every stack,
// in no particular order.
func (p *Profile) StageCounters() []StageCounter {
	idx := map[string]int{}
	out := []StageCounter{}
	p.stacks.Range(func(_, v any) bool {
		v.(*StackProfile).stages.Range(func(k, v any) bool {
			name, sa := k.(string), v.(*stageAgg)
			i, ok := idx[name]
			if !ok {
				i = len(out)
				idx[name] = i
				out = append(out, StageCounter{Stage: name})
			}
			out[i].Ops += sa.count.Load()
			out[i].Total += vtime.Duration(sa.sumNS.Load())
			return true
		})
		return true
	})
	for i := range out {
		if out[i].Ops > 0 {
			out[i].Mean = out[i].Total / vtime.Duration(out[i].Ops)
		}
	}
	return out
}

func nsToUS(ns int64) float64 { return float64(ns) / 1e3 }

func meanUS(sumNS, n int64) float64 {
	if n == 0 {
		return 0
	}
	return nsToUS(sumNS) / float64(n)
}

// --- tail estimator ----------------------------------------------------------

// DefaultTailQuantile is the rolling quantile a TailEstimator tracks when
// none is configured: outliers are the slowest ~1%.
const DefaultTailQuantile = 0.99

// tailWarmup is how many observations seed the estimate (as a running mean)
// before outlier retention switches on.
const tailWarmup = 64

// tailGain is the relative step of the quantile tracker: how far (as a
// fraction of the current estimate) one observation can move it.
const tailGain = 0.05

// TailEstimator tracks a rolling quantile of a latency stream by stochastic
// approximation (the classic pinball-loss SGD update with a step
// proportional to the current estimate): on each observation x,
//
//	x > est: est += gain·est·q        (rare — (1-q) of the stream)
//	x ≤ est: est -= gain·est·(1-q)    (common, tiny step)
//
// whose equilibrium is P(x > est) = 1-q, i.e. est converges to the
// q-quantile and tracks it as the workload drifts. Observe reports whether
// x exceeded the estimate — the tail-retention decision: with q = 0.99 the
// slowest ~1% of requests are flagged, no matter what the sampler picked.
//
// A TailEstimator is deliberately not synchronized: each worker owns one
// per stack (its view of the stream it drains), so the always-on hot path
// pays a compare and one multiply, never a shared cacheline.
type TailEstimator struct {
	q   float64
	n   int64
	est float64
	// up/down are the relative steps precomputed as multiplicative
	// factors: est·(1+gain·q) on an outlier, est·(1-gain·(1-q)) otherwise
	// — algebraically the relative-step SGD update with one multiply.
	up   float64
	down float64
}

// NewTailEstimator returns an estimator for quantile q
// (DefaultTailQuantile when q is out of (0,1)).
func NewTailEstimator(q float64) *TailEstimator {
	if q <= 0 || q >= 1 {
		q = DefaultTailQuantile
	}
	return &TailEstimator{q: q, up: 1 + tailGain*q, down: 1 - tailGain*(1-q)}
}

// Observe folds one latency (nanoseconds) and reports whether it is an
// outlier: past warmup and above the rolling quantile estimate. The steady
// state is kept small enough for the compiler to inline: a counter, a
// compare and one multiply.
func (te *TailEstimator) Observe(latNS float64) bool {
	if te.n++; te.n <= tailWarmup {
		te.observeWarmup(latNS)
		return false
	}
	if latNS > te.est {
		te.est *= te.up
		return true
	}
	if te.est *= te.down; te.est < 1 {
		te.est = 1 // ns floor so a zero estimate can still climb
	}
	return false
}

// observeWarmup seeds the estimate with the stream's running mean: a
// quantile estimate needs a scale before relative steps mean anything.
func (te *TailEstimator) observeWarmup(latNS float64) {
	te.est += (latNS - te.est) / float64(te.n)
}

// Estimate returns the current rolling quantile estimate (ns).
func (te *TailEstimator) Estimate() float64 { return te.est }

// Count returns the number of observations folded.
func (te *TailEstimator) Count() int64 { return te.n }

// Quantile returns the tracked quantile.
func (te *TailEstimator) Quantile() float64 { return te.q }
