package runtime

import (
	"sort"
	"sync"

	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

// Orchestrator is the Work Orchestrator (paper §III-C4): a userspace
// process/thread scheduling framework that assigns request queues to
// workers and scales the active worker pool. Policies are modular; two are
// provided, matching the evaluation:
//
//   - round_robin: queues are divided evenly across all active workers.
//   - dynamic: queues are split into latency-sensitive queues (LQs) and
//     computational queues (CQs) by the maximum expected processing time of
//     their requests (EstProcessingTime) and queue depth; LQs are placed on
//     a dedicated subset of workers, CQs on another, and a knapsack-style
//     partition picks the fewest workers that keep estimated per-worker
//     load under a threshold.
type Orchestrator struct {
	rt *Runtime

	mu     sync.Mutex
	queues []*QP
	// perQueue accumulates observed CPU demand and request counts, which
	// Rebalance turns into a utilization rate (CPU-time per virtual time)
	// and a per-request cost estimate (the LQ/CQ classifier input).
	perQueue map[int]*queueStats
	// rebalances counts Rebalance invocations.
	rebalances int
	// prevFrontier is the global worker virtual frontier at the last
	// rebalance (the epoch's virtual length denominator).
	prevFrontier vtime.Time
	// last is the most recent dynamic-rebalance decision (telemetry).
	last RebalanceDecision
}

// RebalanceDecision records what the dynamic policy decided at its last
// rebalance: the LQ/CQ classification, the worker subset sizes, and the
// estimated (observed-rate) load of each class.
type RebalanceDecision struct {
	LQs       int     `json:"lqs"`
	CQs       int     `json:"cqs"`
	LQWorkers int     `json:"lq_workers"`
	CQWorkers int     `json:"cq_workers"`
	LQLoad    float64 `json:"lq_load"`
	CQLoad    float64 `json:"cq_load"`
}

// queueStats is the orchestrator's view of one queue's demand.
type queueStats struct {
	cpuNS   float64    // cumulative observed CPU time
	count   int64      // cumulative requests
	firstVT vtime.Time // first observed completion
	lastVT  vtime.Time // latest observed completion
	estNS   float64    // EWMA per-request processing time
	// Window snapshot taken at each rebalance, so demand is measured over
	// the most recent epoch rather than the whole run.
	prevCPU float64
	prevVT  vtime.Time
	// rate is the demand estimate carried between windows: an epoch with no
	// completions keeps the previous estimate while work is still queued
	// (long requests span epochs) and decays it when the queue is idle.
	rate float64
}

func newOrchestrator(rt *Runtime) *Orchestrator {
	return &Orchestrator{
		rt:       rt,
		perQueue: make(map[int]*queueStats),
	}
}

// AddQueue registers a new client queue and rebalances (the paper
// rebalances when a new client connects and every t ms). Both happen under
// the control lock, so every registered queue has a worker once no control
// decision is in progress.
func (o *Orchestrator) AddQueue(qp *QP) {
	o.rt.ctl.Lock()
	defer o.rt.ctl.Unlock()
	o.mu.Lock()
	o.queues = append(o.queues, qp)
	n := len(o.queues)
	o.mu.Unlock()
	o.rt.events.Recordf(telemetry.EvRebalance, o.rt.vnow(), "queue %d registered (%d total)", qp.ID, n)
	o.rebalance()
}

// RemoveQueue retires a client queue and rebalances, under the control lock.
func (o *Orchestrator) RemoveQueue(qp *QP) {
	o.rt.ctl.Lock()
	defer o.rt.ctl.Unlock()
	o.mu.Lock()
	for i, q := range o.queues {
		if q == qp {
			o.queues = append(o.queues[:i], o.queues[i+1:]...)
			break
		}
	}
	delete(o.perQueue, qp.ID)
	n := len(o.queues)
	o.mu.Unlock()
	o.rt.events.Recordf(telemetry.EvRebalance, o.rt.vnow(), "queue %d retired (%d left)", qp.ID, n)
	o.rebalance()
}

// Queues returns the registered queues.
func (o *Orchestrator) Queues() []*QP {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*QP, len(o.queues))
	copy(out, o.queues)
	return out
}

// ObserveBatch feeds the classifier: a worker reports each drain's request
// count, summed CPU cost and latest completion virtual time, folded into
// the per-queue demand stats under a single mutex acquisition. The EWMA
// cost estimate is advanced once per request using the batch's mean cost.
func (o *Orchestrator) ObserveBatch(qpID int, n int, cpu vtime.Duration, completion vtime.Time) {
	if n <= 0 {
		return
	}
	o.mu.Lock()
	qs, ok := o.perQueue[qpID]
	if !ok {
		qs = &queueStats{firstVT: completion}
		o.perQueue[qpID] = qs
	}
	qs.cpuNS += float64(cpu)
	qs.count += int64(n)
	if completion > qs.lastVT {
		qs.lastVT = completion
	}
	const alpha = 0.3
	mean := float64(cpu) / float64(n)
	for i := 0; i < n; i++ {
		qs.estNS = (1-alpha)*qs.estNS + alpha*mean
	}
	o.mu.Unlock()
}

// Rebalances returns how many times Rebalance has run.
func (o *Orchestrator) Rebalances() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rebalances
}

// LastDecision returns the most recent dynamic-rebalance decision (zero
// value under round_robin or before the first rebalance).
func (o *Orchestrator) LastDecision() RebalanceDecision {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.last
}

// QueueDemand is the orchestrator's telemetry view of one queue: observed
// demand (utilization rate), the EWMA per-request cost estimate feeding the
// LQ/CQ classifier, and cumulative traffic.
type QueueDemand struct {
	ID       int     `json:"id"`
	Requests int64   `json:"requests"`
	CPUNS    float64 `json:"cpu_ns"`
	EstNS    float64 `json:"est_ns"`
	Rate     float64 `json:"rate"`
}

// QueueDemands returns the per-queue demand estimates, in queue order.
func (o *Orchestrator) QueueDemands() []QueueDemand {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]QueueDemand, 0, len(o.queues))
	for _, q := range o.queues {
		d := QueueDemand{ID: q.ID}
		if qs, ok := o.perQueue[q.ID]; ok {
			d.Requests = qs.count
			d.CPUNS = qs.cpuNS
			d.EstNS = qs.estNS
			d.Rate = qs.rate
		}
		out = append(out, d)
	}
	return out
}

// Rebalance recomputes the queue→worker assignment under the active policy.
func (o *Orchestrator) Rebalance() {
	o.rt.ctl.Lock()
	defer o.rt.ctl.Unlock()
	o.rebalance()
}

// rebalance is Rebalance for a caller that holds the control lock: the
// queue snapshot, the plan and every worker's new assignment form one
// decision.
func (o *Orchestrator) rebalance() {
	o.rt.metrics.Counter("orchestrator.rebalances").Inc()
	o.mu.Lock()
	o.rebalances++
	queues := make([]*QP, len(o.queues))
	copy(queues, o.queues)
	policy := o.rt.opts.Policy
	o.mu.Unlock()

	switch policy {
	case "dynamic":
		o.rebalanceDynamic(queues)
	default:
		o.rebalanceRR(queues)
	}
	o.rt.metrics.Gauge("orchestrator.active_workers").Set(int64(o.rt.ActiveWorkers()))
}

// rebalanceRR spreads queues evenly across every worker in the pool.
func (o *Orchestrator) rebalanceRR(queues []*QP) {
	workers := o.rt.workers
	n := len(workers)
	buckets := make([][]*QP, n)
	for i, q := range queues {
		buckets[i%n] = append(buckets[i%n], q)
	}
	for i, w := range workers {
		w.setActive(true)
		w.assign(buckets[i])
	}
}

// rebalanceDynamic implements the paper's dynamic policy: classify queues
// into latency-sensitive (LQ) and computational (CQ) by expected processing
// time; size each group's worker subset to its observed CPU-utilization
// demand (fewest workers within the loss threshold); and pack queues onto
// workers with balanced-knapsack greedy placement, LQs on a dedicated
// subset so computational requests never sit in front of them.
func (o *Orchestrator) rebalanceDynamic(queues []*QP) {
	workers := o.rt.workers
	maxW := len(workers)
	if maxW == 0 || len(queues) == 0 {
		return
	}
	cutoff := float64(o.rt.opts.LatencyCutoff)

	// 1. Classify and compute each queue's utilization rate: CPU time the
	//    queue consumed this epoch, normalized by the global virtual-time
	//    progress of the epoch (the frontier across all workers). Using the
	//    global frontier rather than per-queue spans matters: a closed-loop
	//    low-latency client is "always busy" inside its own tiny virtual
	//    window, but consumes almost nothing of the system's capacity.
	frontier := o.rt.vnow()
	o.mu.Lock()
	dFrontier := float64(frontier.Sub(o.prevFrontier))
	// Only close a measurement window once the system has made enough
	// virtual progress; otherwise the denominators are degenerate (e.g. a
	// long request is mid-service and no worker clock has moved). Until
	// then, carry the previous rates.
	const minWindow = float64(500 * vtime.Microsecond)
	closeWindow := dFrontier >= minWindow
	if closeWindow {
		o.prevFrontier = frontier
	}

	var lqs, cqs []*QP
	loads := make(map[int]float64, len(queues))
	for _, q := range queues {
		var est, rate float64
		if qs, ok := o.perQueue[q.ID]; ok {
			est = qs.estNS
			rate = qs.rate
			if closeWindow {
				dCPU := qs.cpuNS - qs.prevCPU
				if dCPU > 0 {
					rate = dCPU / dFrontier
				} else if q.SQLen() == 0 && q.Inflight() == 0 {
					// Idle queue: decay toward zero.
					rate *= 0.5
				}
				if rate > 1 {
					rate = 1 // a single queue cannot use more than one core
				}
				qs.rate = rate
				qs.prevCPU = qs.cpuNS
				qs.prevVT = qs.lastVT
			}
		}
		loads[q.ID] = rate
		if est > cutoff {
			cqs = append(cqs, q)
		} else {
			lqs = append(lqs, q)
		}
	}
	anyStats := false
	for _, qs := range o.perQueue {
		if qs.count > 0 {
			anyStats = true
			break
		}
	}
	o.mu.Unlock()

	// Cold start: with no observations there is nothing to classify or
	// size — spread the queues like round-robin until data arrives.
	if !anyStats {
		o.rebalanceRR(queues)
		return
	}

	// 2. Pick the fewest workers whose capacity (1 core each) covers the
	//    group's demand within the loss threshold. Demand is observed at
	//    the *current* capacity, so when the pool is saturated the
	//    measurement understates true demand; the headroom factor lets the
	//    pool grow until the measured demand fits.
	headroom := 1.0 + 2.5*o.rt.opts.LossThreshold
	need := func(qs []*QP) int {
		var total float64
		for _, q := range qs {
			total += loads[q.ID]
		}
		n := int(total*headroom) + 1
		if n < 1 {
			n = 1
		}
		return n
	}

	nLQ := 0
	if len(lqs) > 0 {
		nLQ = need(lqs)
	}
	nCQ := 0
	if len(cqs) > 0 {
		nCQ = need(cqs)
	}
	if nLQ+nCQ > maxW {
		// Shrink the larger group first.
		for nLQ+nCQ > maxW && nCQ > 1 {
			nCQ--
		}
		for nLQ+nCQ > maxW && nLQ > 1 {
			nLQ--
		}
	}
	if nLQ+nCQ > maxW {
		// Pool too small to separate the classes: share the workers.
		nLQ = maxW
		nCQ = 0
		lqs = append(lqs, cqs...)
		cqs = nil
	}

	var lTot, cTot float64
	for _, q := range lqs {
		lTot += loads[q.ID]
	}
	for _, q := range cqs {
		cTot += loads[q.ID]
	}
	// 3. Pack queues onto the chosen worker subsets.
	assignment := make([][]*QP, maxW)
	packLPT(lqs, loads, assignment[:nLQ])
	packLPT(cqs, loads, assignment[nLQ:nLQ+nCQ])

	dec := RebalanceDecision{
		LQs: len(lqs), CQs: len(cqs),
		LQWorkers: nLQ, CQWorkers: nCQ,
		LQLoad: lTot, CQLoad: cTot,
	}
	o.mu.Lock()
	partitionChanged := dec.LQs != o.last.LQs || dec.CQs != o.last.CQs ||
		dec.LQWorkers != o.last.LQWorkers || dec.CQWorkers != o.last.CQWorkers
	o.last = dec
	o.mu.Unlock()
	if partitionChanged {
		// Flight events on partition changes only (loads drift every epoch;
		// the decision shape is what operators want in the blackbox).
		o.rt.events.Recordf(telemetry.EvRebalance, o.rt.vnow(),
			"dynamic partition: %d LQs on %d workers, %d CQs on %d workers",
			dec.LQs, dec.LQWorkers, dec.CQs, dec.CQWorkers)
	}

	for i, w := range workers {
		active := i < nLQ+nCQ
		w.setActive(active)
		if active {
			w.assign(assignment[i])
		} else {
			w.assign(nil)
		}
	}
}

// packLPT distributes queues across sacks with longest-processing-time
// first greedy balancing: heaviest queue first, each to the least-loaded
// sack (ties go to the lowest index).
func packLPT(queues []*QP, loads map[int]float64, sacks [][]*QP) {
	if len(sacks) == 0 {
		return
	}
	sorted := make([]*QP, len(queues))
	copy(sorted, queues)
	sort.Slice(sorted, func(i, j int) bool { return loads[sorted[i].ID] > loads[sorted[j].ID] })
	weight := make([]float64, len(sacks))
	for _, q := range sorted {
		best := 0
		for i := 1; i < len(weight); i++ {
			if weight[i] < weight[best] {
				best = i
			}
		}
		sacks[best] = append(sacks[best], q)
		weight[best] += loads[q.ID]
	}
}
