// Package consistency implements the tunable-consistency LabMod, one of the
// paper's "new and exotic" composable policies: the module decides how
// aggressively writes are made durable downstream.
//
// Levels:
//   - "strict":  every write is followed by a flush (synchronous durability);
//   - "ordered": a flush is issued every N writes (attr "interval", default
//     16), preserving prefix durability;
//   - "relaxed": no flushes are injected; durability is the caller's problem.
package consistency

import (
	"fmt"
	"strconv"
	"sync"

	"labstor/internal/core"
	"labstor/internal/vtime"
)

// Type is the registered module type name.
const Type = "labstor.consistency"

func init() {
	core.RegisterType(Type, func() core.Module { return &Guard{} })
}

// Guard is the consistency module instance.
type Guard struct {
	core.Base
	level    string
	interval int

	mu      sync.Mutex
	pending int
	flushes int64
}

// Info describes the module.
func (g *Guard) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: Type, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIBlock}
}

// Configure reads the level and flush interval.
func (g *Guard) Configure(cfg core.Config, env *core.Env) error {
	if err := g.Base.Configure(cfg, env); err != nil {
		return err
	}
	g.level = cfg.Attr("level", "ordered")
	switch g.level {
	case "strict", "ordered", "relaxed":
	default:
		return fmt.Errorf("consistency: unknown level %q", g.level)
	}
	iv, err := strconv.Atoi(cfg.Attr("interval", "16"))
	if err != nil || iv < 1 {
		return fmt.Errorf("consistency: bad interval %q", cfg.Attr("interval", "16"))
	}
	g.interval = iv
	return nil
}

// Process forwards the request and injects flushes per the policy.
func (g *Guard) Process(e *core.Exec, req *core.Request) error {
	if err := e.Next(req); err != nil {
		return err
	}
	if !req.Op.IsWrite() {
		return nil
	}
	needFlush := false
	switch g.level {
	case "strict":
		needFlush = true
	case "ordered":
		g.mu.Lock()
		g.pending++
		if g.pending >= g.interval {
			g.pending = 0
			needFlush = true
		}
		g.mu.Unlock()
	}
	if needFlush {
		g.mu.Lock()
		g.flushes++
		g.mu.Unlock()
		fl := req.Child(core.OpBlockFlush)
		err := e.SpawnNext(req, fl)
		fl.Release()
		return err
	}
	return nil
}

// Flushes returns the number of injected flushes.
func (g *Guard) Flushes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flushes
}

// StateUpdate carries the pending-write counter across upgrades so ordered
// mode keeps its cadence.
func (g *Guard) StateUpdate(prev core.Module) error {
	if old, ok := prev.(*Guard); ok {
		old.mu.Lock()
		defer old.mu.Unlock()
		g.mu.Lock()
		defer g.mu.Unlock()
		g.pending, g.flushes = old.pending, old.flushes
	}
	return nil
}

// EstProcessingTime is negligible — the policy itself is cheap.
func (g *Guard) EstProcessingTime(op core.Op, size int) vtime.Duration {
	return 100 * vtime.Nanosecond
}
