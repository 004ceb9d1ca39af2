package runtime

import (
	"errors"
	"fmt"
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

// UpgradeRequest asks for the instance behind a LabMod UUID to be
// hot-swapped. Build constructs the replacement (the paper loads updated
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
	// modeled I/O). A device the runtime does not have fails the upgrade.
	CodeDevice string
}

// UpgradeStats summarises the runtime's upgrade activity, including the
// wall-clock phase timings of the most recent batch: gating and draining
// the stacks, then swapping the modules (paper §III-C2).
type UpgradeStats struct {
	Done            int            `json:"done"`
	LastVT          vtime.Duration `json:"last_vt_ns"`
	TotalVT         vtime.Duration `json:"total_vt_ns"`
	LastQuiesceWall time.Duration  `json:"last_quiesce_wall_ns"`
	LastApplyWall   time.Duration  `json:"last_apply_wall_ns"`
}

// UpgradeStats returns the upgrade counters and last-batch phase timings.
func (rt *Runtime) UpgradeStats() UpgradeStats {
	rt.upgradeMu.Lock()
	defer rt.upgradeMu.Unlock()
	return rt.upgrades
}

// Upgrade live-upgrades the modules batch names (the paper's modify.mods):
// the Module Manager's centralized protocol, and its decentralized
// extension, for the whole batch under quiesce. The stacks that reach the
// batch's modules are gated, the walks inside them finish, each module is
// swapped via Registry.Swap → StateUpdate(old), and the stacks reopen. An
// attempt whose walkers do not leave within quiesceTimeout is retried, so
// Upgrade returns once the batch has been applied. It applies only while
// the runtime runs: it waits out a crash for Restart, and once the runtime
// has stopped it returns ErrStopped without swapping anything. Otherwise
// it returns the requests' errors joined.
func (rt *Runtime) Upgrade(batch ...*UpgradeRequest) error {
	uuids := make(map[string]bool, len(batch))
	for _, up := range batch {
		uuids[up.UUID] = true
	}
	for {
		switch err := rt.upgradeOnce(uuids, batch); err {
		case errCrashed:
			time.Sleep(200 * time.Microsecond)
		case errNotQuiet: // quiesce has waited quiesceTimeout: try again
		default:
			return err
		}
	}
}

// upgradeOnce makes one attempt at batch under ctl. It returns errCrashed
// or ErrStopped, applying nothing, unless the runtime runs, and errNotQuiet
// if quiesce gave up.
func (rt *Runtime) upgradeOnce(uuids map[string]bool, batch []*UpgradeRequest) error {
	rt.ctl.Lock()
	defer rt.ctl.Unlock()
	if err := rt.admit(nil); err != nil {
		return err
	}
	start := time.Now()
	var quiesceWall time.Duration
	var batchVT vtime.Duration
	applied := 0
	err := rt.quiesce(uuids, func() error {
		quiesceWall = time.Since(start)
		start = time.Now()
		var errs []error
		for _, up := range batch {
			vt, err := rt.applyOne(up)
			batchVT += vt
			if err == nil {
				applied++
				rt.events.Recordf(telemetry.EvUpgrade, rt.vnow(), "module %s upgraded (%s)", up.UUID, up.Mode)
			} else {
				rt.events.Recordf(telemetry.EvUpgrade, rt.vnow(), "module %s upgrade failed: %v", up.UUID, err)
				errs = append(errs, err)
			}
		}
		// The pause + code load + state transfer occupy the Runtime: model
		// the service interruption by pushing every worker's virtual clock
		// past the upgrade window, so requests held at the gate see the
		// delay (Worker.admit).
		for _, w := range rt.workers {
			w.clock.Advance(batchVT)
		}
		return errors.Join(errs...)
	})
	if err == errNotQuiet {
		return err
	}
	applyWall := time.Since(start)

	rt.upgradeMu.Lock()
	u := &rt.upgrades
	u.Done += applied
	u.LastVT = batchVT
	u.TotalVT += batchVT
	u.LastQuiesceWall = quiesceWall
	u.LastApplyWall = applyWall
	rt.upgradeMu.Unlock()

	reg := rt.metrics
	reg.Add("upgrade.applied", int64(applied))
	reg.Observe("upgrade.quiesce_wall_us", float64(quiesceWall.Microseconds()))
	reg.Observe("upgrade.apply_wall_us", float64(applyWall.Microseconds()))
	return err
}

// applyOne swaps a single module and returns the modeled upgrade duration:
// code load I/O (dominant per the paper — ~5 ms for a 1 MiB module on
// NVMe) plus state transfer.
func (rt *Runtime) applyOne(up *UpgradeRequest) (vtime.Duration, error) {
	if up.Build == nil {
		return 0, fmt.Errorf("runtime: upgrade for %q has no builder", up.UUID)
	}
	old, err := rt.Registry.Get(up.UUID)
	if err != nil {
		return 0, err
	}
	// Modeled cost: load updated code from storage + transfer state.
	var cost vtime.Duration
	if up.CodeDevice != "" {
		dev, err := rt.Env.Device(up.CodeDevice)
		if err != nil {
			return 0, fmt.Errorf("runtime: upgrade for %q loads its code from %q: %w", up.UUID, up.CodeDevice, err)
		}
		if up.CodeSize > 0 {
			cost += dev.ServiceTime(device.Read, 0, up.CodeSize)
		}
	}
	cost += rt.opts.Model.Copy(1024) // state transfer: a few pointers

	cfg := core.Config{UUID: up.UUID}
	if ca, ok := old.(interface{ ModConfig() core.Config }); ok {
		cfg = ca.ModConfig()
		cfg.UUID = up.UUID
	}
	next := up.Build()
	if err := next.Configure(cfg, rt.Env); err != nil {
		return cost, err
	}
	if err := rt.Registry.Swap(up.UUID, next); err != nil {
		return cost, err
	}

	if up.Mode == Decentralized {
		// Each connected client maps the updated code into its own address
		// space and receives the transferred state.
		rt.mu.Lock()
		clients := len(rt.clients)
		rt.mu.Unlock()
		cost += vtime.Duration(clients) * (rt.opts.Model.Copy(up.CodeSize) + rt.opts.Model.Copy(1024))
	}
	return cost, nil
}
