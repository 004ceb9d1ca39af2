// Package experiments implements one runner per table and figure of the
// paper's evaluation (§IV). Each runner builds the configurations the paper
// compares, executes the (scaled) workload, and returns both a printable
// table and the raw values so tests can assert the qualitative shape —
// who wins, by roughly what factor, where crossovers fall. Absolute numbers
// are modeled virtual time over simulated devices, not the paper's testbed
// wall clock; EXPERIMENTS.md records paper-vs-measured per experiment.
package experiments

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	_ "labstor/internal/mods/allmods" // register every LabMod type
	"labstor/internal/runtime"
	"labstor/internal/stats"
	"labstor/internal/vtime"
)

// Result is one experiment's output.
type Result struct {
	Name  string
	Table *stats.Table
	Notes string
	// Values holds named scalar results for programmatic assertions.
	Values map[string]float64
}

// V records a named scalar.
func (r *Result) V(key string, v float64) {
	if r.Values == nil {
		r.Values = make(map[string]float64)
	}
	r.Values[key] = v
}

// String renders the result.
func (r *Result) String() string {
	s := "## " + r.Name + "\n\n" + r.Table.String()
	if r.Notes != "" {
		s += "\n" + r.Notes + "\n"
	}
	return s
}

// LabCfg selects the LabStack composition, mirroring the paper's named
// configurations:
//
//	Lab-All ("Centralized+Permissions"): Perms + Cache + NoOp + KernelDriver, async
//	Lab-Min ("Centralized"):             Cache + NoOp + KernelDriver, async
//	Lab-D   ("Minimal"):                 Cache + NoOp + KernelDriver, sync (client-side)
type LabCfg struct {
	Generic  bool   // include GenericFS/GenericKVS entry vertex
	Perms    bool   // include the permissions LabMod
	Cache    bool   // include the LRU page cache
	CacheMB  int    // cache capacity (default 64)
	Compress bool   // include the compression LabMod
	Sched    string // "noop" | "blkswitch" | "" (none)
	Driver   string // "kernel_driver" | "spdk" | "dax"
	Sync     bool   // execute client-side (decentralized)
	KV       bool   // LabKVS instead of LabFS
	NoFS     bool   // block-only stack (no filesystem vertex)
	LogMB    int    // LabFS/LabKVS log region size (default 16/8)
	Prefix   string // vertex UUID prefix (instances are per-stack unless shared)
}

// LabAll returns the Lab-All configuration over the given driver.
func LabAll(driver string) LabCfg {
	return LabCfg{Generic: true, Perms: true, Cache: true, Sched: "noop", Driver: driver}
}

// MountLab builds and mounts a LabStack over devName at mount.
func MountLab(rt *runtime.Runtime, mount, devName string, cfg LabCfg) (*core.Stack, error) {
	if cfg.Driver == "" {
		cfg.Driver = "kernel_driver"
	}
	p := cfg.Prefix
	if p == "" {
		p = mount
	}
	var vs []core.Vertex
	add := func(uuid, typ string, attrs map[string]string) {
		vs = append(vs, core.Vertex{UUID: p + "/" + uuid, Type: typ, Attrs: attrs})
	}
	if cfg.Generic {
		if cfg.KV {
			add("genkvs", "labstor.generickvs", nil)
		} else {
			add("genfs", "labstor.genericfs", nil)
		}
	}
	if cfg.Perms {
		add("perm", "labstor.perm", map[string]string{"mode": "0666"})
	}
	if !cfg.NoFS {
		logMB := cfg.LogMB
		attrs := map[string]string{"device": devName}
		if cfg.KV {
			if logMB == 0 {
				logMB = 8
			}
			attrs["log_mb"] = fmt.Sprintf("%d", logMB)
			add("kvs", "labstor.labkvs", attrs)
		} else {
			if logMB == 0 {
				logMB = 16
			}
			attrs["log_mb"] = fmt.Sprintf("%d", logMB)
			add("fs", "labstor.labfs", attrs)
		}
	}
	if cfg.Compress {
		// HuffmanOnly keeps the *functional* deflate pass cheap on the host;
		// the modeled compression cost comes from the cost model either way.
		add("zip", "labstor.compress", map[string]string{"level": "-2"})
	}
	if cfg.Cache {
		capMB := cfg.CacheMB
		if capMB == 0 {
			capMB = 64
		}
		add("cache", "labstor.lru", map[string]string{"capacity_mb": fmt.Sprintf("%d", capMB)})
	}
	if cfg.Sched != "" {
		add("sched", "labstor."+cfg.Sched, map[string]string{"device": devName})
	}
	add("drv", "labstor."+cfg.Driver, map[string]string{"device": devName})

	// Chain wiring.
	for i := range vs {
		if i+1 < len(vs) {
			vs[i].Outputs = []string{vs[i+1].UUID}
		}
	}
	rules := core.Rules{ExecMode: core.ExecAsync}
	if cfg.Sync {
		rules.ExecMode = core.ExecSync
	}
	return rt.Mount(core.NewStack(mount, rules, vs))
}

// NewRig builds a Runtime with one simulated device attached and started.
type Rig struct {
	RT  *runtime.Runtime
	Dev *device.Device
}

// NewRig creates and starts a Runtime over a fresh device.
func NewRig(class device.Class, capacity int64, workers int, policy string) *Rig {
	rt := runtime.New(runtime.Options{
		MaxWorkers: workers,
		QueueDepth: 4096,
		Policy:     policy,
	})
	dev := device.New("dev0", class, capacity)
	rt.AddDevice(dev)
	rt.Start()
	return &Rig{RT: rt, Dev: dev}
}

// Close shuts the rig down.
func (r *Rig) Close() { r.RT.Shutdown() }

// newTable builds a stats.Table with the given header.
func newTable(header ...string) *stats.Table {
	return &stats.Table{Header: header}
}

// Pacer couples virtual time to wall time (1 virtual ns = 1 real ns) for
// experiments where cross-entity interference depends on *when* requests
// arrive relative to each other. The piggyback virtual-time model processes
// requests in real arrival order; pacing each actor to its own virtual
// clock keeps that order consistent with the virtual timeline, so an
// open-loop throughput stream genuinely backs up the queues a closed-loop
// latency probe samples.
type Pacer struct {
	start time.Time
	scale int64
}

// NewPacer starts a pacer anchored at the current wall time. scale is the
// real-ns-per-virtual-ns dilation: with the host's ~1ms sleep granularity,
// a scale of 10-20 keeps pacing error small relative to the virtual
// intervals under study.
func NewPacer(scale int64) *Pacer {
	if scale < 1 {
		scale = 1
	}
	return &Pacer{start: time.Now(), scale: scale}
}

// Pace sleeps until wall time catches up with virtual time v.
func (p *Pacer) Pace(v vtime.Time) {
	target := p.start.Add(time.Duration(int64(v) * p.scale))
	if d := time.Until(target); d > 0 {
		time.Sleep(d)
	}
}

// Lockstep orders closed-loop actors by virtual time instead of wall time:
// an actor may submit only while its clock is the lowest among the actors
// still running. A worker serializes requests in real arrival order, so
// without it an actor that the Go scheduler happens to run ahead drags a
// shared worker's clock forward, and every actor behind it pays the gap as
// queueing that never happened in the modeled timeline. How far ahead an
// actor runs depends on the host's core count, so results without the gate
// do too.
type Lockstep struct {
	mu     sync.Mutex
	cond   *sync.Cond
	clocks []vtime.Time
}

// lockstepDone is the clock of an actor that has finished.
const lockstepDone = vtime.Time(math.MaxInt64)

// NewLockstep gates n actors, all starting at virtual time zero.
func NewLockstep(n int) *Lockstep {
	l := &Lockstep{clocks: make([]vtime.Time, n)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Wait publishes actor i's clock and blocks until no running actor is
// behind it.
func (l *Lockstep) Wait(i int, now vtime.Time) {
	l.mu.Lock()
	l.clocks[i] = now
	l.cond.Broadcast()
	for now > slices.Min(l.clocks) {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// Done retires actor i so it no longer holds the others back.
func (l *Lockstep) Done(i int) {
	l.mu.Lock()
	l.clocks[i] = lockstepDone
	l.cond.Broadcast()
	l.mu.Unlock()
}
