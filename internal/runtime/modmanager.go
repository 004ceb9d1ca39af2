package runtime

import (
	"fmt"
	"sync"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

// UpgradeMode selects which address spaces a live upgrade touches.
type UpgradeMode uint8

const (
	// Centralized upgrades replace the instance in the Runtime's Module
	// Registry (paper §III-C2, detailed protocol).
	Centralized UpgradeMode = iota
	// Decentralized upgrades also reach the clients that walk sync-mode
	// stacks. Every client walks the one registry, so the upgrade swaps the
	// one instance as a centralized one does; it models each connected
	// client mapping the new code and taking the state.
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

	// Wall-clock phase timings of the last upgrade batch: gating and
	// draining the stacks, then swapping the modules (paper §III-C2).
	lastQuiesceWall time.Duration
	lastApplyWall   time.Duration
}

// UpgradeStats summarises the Module Manager's upgrade activity, including
// the wall-clock phase timings of the most recent batch.
type UpgradeStats struct {
	Done            int            `json:"done"`
	Pending         int            `json:"pending"`
	LastVT          vtime.Duration `json:"last_vt_ns"`
	TotalVT         vtime.Duration `json:"total_vt_ns"`
	LastQuiesceWall time.Duration  `json:"last_quiesce_wall_ns"`
	LastApplyWall   time.Duration  `json:"last_apply_wall_ns"`
}

// Stats returns the upgrade counters and last-batch phase timings.
func (mm *ModManager) Stats() UpgradeStats {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return UpgradeStats{
		Done:            mm.upgradesDone,
		Pending:         len(mm.pending),
		LastVT:          mm.lastUpgradeVT,
		TotalVT:         mm.totalUpgradeVT,
		LastQuiesceWall: mm.lastQuiesceWall,
		LastApplyWall:   mm.lastApplyWall,
	}
}

func newModManager(rt *Runtime) *ModManager {
	return &ModManager{rt: rt}
}

// RequestUpgrade enqueues an upgrade (the paper's modify.mods API) and
// returns a channel that yields the result when the control loop applies it.
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

// ProcessUpgrades drains the upgrade queue, executing the centralized
// protocol (and its decentralized extension) for the whole batch under
// quiesce: the stacks that reach the batch's modules are gated, the walks
// inside them finish, each module is swapped via Registry.Swap →
// StateUpdate(old), and the stacks reopen. If the walkers do not leave in
// time the batch stays queued for the next call.
//
// It is called by the control loop every upgradePoll, and may be called
// directly by tests.
func (mm *ModManager) ProcessUpgrades() {
	mm.mu.Lock()
	batch := mm.pending
	mm.pending = nil
	mm.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	rt := mm.rt
	rt.ctl.Lock()
	defer rt.ctl.Unlock()

	uuids := make(map[string]bool, len(batch))
	for _, up := range batch {
		uuids[up.UUID] = true
	}
	start := time.Now()
	var quiesceWall time.Duration
	var batchVT vtime.Duration
	applied := 0
	err := rt.quiesce(uuids, func() error {
		quiesceWall = time.Since(start)
		start = time.Now()
		for _, up := range batch {
			vt, err := mm.applyOne(up)
			batchVT += vt
			if err == nil {
				applied++
				rt.events.Recordf(telemetry.EvUpgrade, rt.vnow(), "module %s upgraded (%s)", up.UUID, up.Mode)
			} else {
				rt.events.Recordf(telemetry.EvUpgrade, rt.vnow(), "module %s upgrade failed: %v", up.UUID, err)
			}
			up.done <- err
		}
		// The pause + code load + state transfer occupy the Runtime: model
		// the service interruption by pushing every worker's virtual clock
		// past the upgrade window, so requests held at the gate see the
		// delay (Worker.admit).
		for _, w := range rt.workers {
			w.clock.Advance(batchVT)
		}
		return nil
	})
	if err != nil {
		mm.mu.Lock()
		mm.pending = append(batch, mm.pending...)
		mm.mu.Unlock()
		return
	}
	applyWall := time.Since(start)

	mm.mu.Lock()
	mm.upgradesDone += applied
	mm.lastUpgradeVT = batchVT
	mm.totalUpgradeVT += batchVT
	mm.lastQuiesceWall = quiesceWall
	mm.lastApplyWall = applyWall
	mm.mu.Unlock()

	reg := rt.metrics
	reg.Add("upgrade.applied", int64(applied))
	reg.Observe("upgrade.quiesce_wall_us", float64(quiesceWall.Microseconds()))
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
		// Each connected client maps the updated code into its own address
		// space and receives the transferred state.
		mm.rt.mu.Lock()
		clients := len(mm.rt.clients)
		mm.rt.mu.Unlock()
		cost += vtime.Duration(clients) * (mm.rt.opts.Model.Copy(up.CodeSize) + mm.rt.opts.Model.Copy(1024))
	}
	return cost, nil
}
