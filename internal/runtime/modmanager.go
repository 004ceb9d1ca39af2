package runtime

import (
	"fmt"
	"sync"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

// UpgradeMode selects which address spaces a live upgrade touches.
type UpgradeMode uint8

const (
	// Centralized upgrades replace the instance in the Runtime's Module
	// Registry (paper §III-C2, detailed protocol).
	Centralized UpgradeMode = iota
	// Decentralized upgrades additionally replace the instance in every
	// running client's registry view (sync-mode / client-side operators).
	Decentralized
)

func (m UpgradeMode) String() string {
	if m == Decentralized {
		return "decentralized"
	}
	return "centralized"
}

// UpgradeRequest asks the Module Manager to hot-swap the instance behind a
// LabMod UUID. Build constructs the replacement (the paper loads updated
// code from a path; here the "updated code" is a factory). CodeSize and
// CodeDevice model the I/O cost of loading the update binary.
type UpgradeRequest struct {
	UUID string
	// Build creates the new, unconfigured instance.
	Build func() core.Module
	Mode  UpgradeMode
	// CodeSize is the module binary size in bytes (for modeled load cost;
	// the paper's dummy module is 1 MiB on NVMe).
	CodeSize int
	// CodeDevice is the device the update is loaded from ("" = skip the
	// modeled I/O).
	CodeDevice string

	done chan error
}

// ModManager is the Module Manager: it owns the upgrade queue and executes
// the live-upgrade protocols without service interruption.
type ModManager struct {
	rt *Runtime

	mu      sync.Mutex
	pending []*UpgradeRequest

	upgradesDone   int
	lastUpgradeVT  vtime.Duration // modeled duration of the last batch
	totalUpgradeVT vtime.Duration

	// Wall-clock phase timings of the last upgrade batch (the protocol's
	// pause → drain → apply sequence, paper §III-C2).
	lastPauseWall time.Duration
	lastDrainWall time.Duration
	lastApplyWall time.Duration
}

// UpgradeStats summarises the Module Manager's upgrade activity, including
// the wall-clock phase timings of the most recent batch.
type UpgradeStats struct {
	Done          int            `json:"done"`
	Pending       int            `json:"pending"`
	LastVT        vtime.Duration `json:"last_vt_ns"`
	TotalVT       vtime.Duration `json:"total_vt_ns"`
	LastPauseWall time.Duration  `json:"last_pause_wall_ns"`
	LastDrainWall time.Duration  `json:"last_drain_wall_ns"`
	LastApplyWall time.Duration  `json:"last_apply_wall_ns"`
}

// Stats returns the upgrade counters and last-batch phase timings.
func (mm *ModManager) Stats() UpgradeStats {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return UpgradeStats{
		Done:          mm.upgradesDone,
		Pending:       len(mm.pending),
		LastVT:        mm.lastUpgradeVT,
		TotalVT:       mm.totalUpgradeVT,
		LastPauseWall: mm.lastPauseWall,
		LastDrainWall: mm.lastDrainWall,
		LastApplyWall: mm.lastApplyWall,
	}
}

func newModManager(rt *Runtime) *ModManager {
	return &ModManager{rt: rt}
}

// RequestUpgrade enqueues an upgrade (the paper's modify.mods API) and
// returns a channel that yields the result when the admin processes it.
func (mm *ModManager) RequestUpgrade(req *UpgradeRequest) <-chan error {
	req.done = make(chan error, 1)
	mm.mu.Lock()
	mm.pending = append(mm.pending, req)
	mm.mu.Unlock()
	return req.done
}

// Upgrade enqueues and waits for completion.
func (mm *ModManager) Upgrade(req *UpgradeRequest) error {
	ch := mm.RequestUpgrade(req)
	return <-ch
}

// PendingUpgrades returns the queue length.
func (mm *ModManager) PendingUpgrades() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return len(mm.pending)
}

// UpgradesDone returns how many upgrades have been applied.
func (mm *ModManager) UpgradesDone() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.upgradesDone
}

// TotalUpgradeTime returns the cumulative modeled upgrade time.
func (mm *ModManager) TotalUpgradeTime() vtime.Duration {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.totalUpgradeVT
}

// ProcessUpgrades drains the upgrade queue, executing the centralized
// protocol (and its decentralized extension) for the whole batch:
//
//  1. mark every primary queue UPDATE_PENDING;
//  2. wait until workers acknowledge (UPDATE_ACKED) — paused queues stop
//     draining;
//  3. wait for intermediate and in-flight requests to complete (all queue
//     pairs idle, no worker mid-request);
//  4. swap each module via Registry.Swap → StateUpdate(old);
//  5. unmark the queues; requests flow again.
//
// It is called by the Runtime Admin loop every UpgradePoll, and may be
// called directly by tests.
func (mm *ModManager) ProcessUpgrades() {
	mm.mu.Lock()
	batch := mm.pending
	mm.pending = nil
	mm.mu.Unlock()
	if len(batch) == 0 {
		return
	}

	queues := mm.rt.orch.Queues()

	// Phase 1: pause primary queues.
	phaseStart := time.Now()
	for _, q := range queues {
		if q.Kind == ipc.Primary {
			q.MarkUpdatePending()
		}
	}
	// Phase 2: wait for worker acknowledgment (or empty queues; a queue no
	// worker currently polls acks trivially since no one drains it).
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		allAcked := true
		for _, q := range queues {
			if q.Kind != ipc.Primary {
				continue
			}
			if q.State() == ipc.UpdatePending && q.SQLen() > 0 {
				allAcked = false
				break
			}
		}
		if allAcked {
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	pauseWall := time.Since(phaseStart)
	// Phase 3: drain intermediate queues, and the requests workers took off
	// a primary queue before it paused — an empty SQ passes phase 2 while its
	// last request is still inside the module about to be swapped, and a
	// swap under it would lose that request's state change.
	phaseStart = time.Now()
	for time.Now().Before(deadline) {
		busy := mm.rt.workersBusy()
		for _, q := range queues {
			if q.Kind == ipc.Intermediate && q.Inflight() > 0 {
				busy = true
				break
			}
		}
		if !busy {
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	drainWall := time.Since(phaseStart)

	// Phase 4: apply each upgrade.
	phaseStart = time.Now()
	var batchVT vtime.Duration
	applied := 0
	for _, up := range batch {
		vt, err := mm.applyOne(up)
		batchVT += vt
		if err == nil {
			applied++
			mm.rt.events.Recordf(telemetry.EvUpgrade, mm.rt.vnow(),
				"module %s upgraded (%s)", up.UUID, up.Mode)
		} else {
			mm.rt.events.Recordf(telemetry.EvUpgrade, mm.rt.vnow(),
				"module %s upgrade failed: %v", up.UUID, err)
		}
		up.done <- err
	}
	applyWall := time.Since(phaseStart)

	// The pause + code load + state transfer occupy the Runtime: model the
	// service interruption by pushing every worker's virtual clock past the
	// upgrade window, so requests queued during the upgrade see the delay.
	if batchVT > 0 {
		for _, w := range mm.rt.workers {
			w.clock.Advance(batchVT)
		}
	}

	// Phase 5: resume.
	for _, q := range queues {
		if q.Kind == ipc.Primary {
			q.ResumeAfterUpdate()
		}
	}

	mm.mu.Lock()
	mm.upgradesDone += applied
	mm.lastUpgradeVT = batchVT
	mm.totalUpgradeVT += batchVT
	mm.lastPauseWall = pauseWall
	mm.lastDrainWall = drainWall
	mm.lastApplyWall = applyWall
	mm.mu.Unlock()

	reg := mm.rt.metrics
	reg.Add("upgrade.applied", int64(applied))
	reg.Observe("upgrade.pause_wall_us", float64(pauseWall.Microseconds()))
	reg.Observe("upgrade.drain_wall_us", float64(drainWall.Microseconds()))
	reg.Observe("upgrade.apply_wall_us", float64(applyWall.Microseconds()))
}

// applyOne swaps a single module and returns the modeled upgrade duration:
// code load I/O (dominant per the paper — ~5 ms for a 1 MiB module on
// NVMe) plus state transfer.
func (mm *ModManager) applyOne(up *UpgradeRequest) (vtime.Duration, error) {
	if up.Build == nil {
		return 0, fmt.Errorf("runtime: upgrade for %q has no builder", up.UUID)
	}
	old, err := mm.rt.Registry.Get(up.UUID)
	if err != nil {
		return 0, err
	}
	// Modeled cost: load updated code from storage + transfer state.
	var cost vtime.Duration
	if up.CodeDevice != "" && up.CodeSize > 0 {
		if dev, derr := mm.rt.Env.Device(up.CodeDevice); derr == nil {
			cost += dev.ServiceTime(device.Read, 0, up.CodeSize)
		}
	}
	cost += mm.rt.opts.Model.Copy(1024) // state transfer: a few pointers

	cfg := core.Config{UUID: up.UUID}
	if ca, ok := old.(interface{ ModConfig() core.Config }); ok {
		cfg = ca.ModConfig()
		cfg.UUID = up.UUID
	}
	next := up.Build()
	if err := next.Configure(cfg, mm.rt.Env); err != nil {
		return cost, err
	}
	if err := mm.rt.Registry.Swap(up.UUID, next); err != nil {
		return cost, err
	}

	if up.Mode == Decentralized {
		// Update every running client's registry view as well.
		mm.rt.mu.Lock()
		clients := make([]*Client, 0, len(mm.rt.clients))
		for _, c := range mm.rt.clients {
			clients = append(clients, c)
		}
		mm.rt.mu.Unlock()
		for _, c := range clients {
			reg := c.cloneRegistryForDecentralized()
			if reg.Has(up.UUID) {
				inst := up.Build()
				_ = inst.Configure(core.Config{UUID: up.UUID}, mm.rt.Env)
				if err := reg.Swap(up.UUID, inst); err != nil {
					return cost, err
				}
				// Each client maps the updated code into its own address
				// space and receives the transferred state.
				cost += mm.rt.opts.Model.Copy(up.CodeSize) + mm.rt.opts.Model.Copy(1024)
			}
		}
	}
	return cost, nil
}
