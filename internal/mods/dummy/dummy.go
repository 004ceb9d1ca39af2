// Package dummy implements the diagnostic LabMod used by the paper's
// live-upgrade evaluation (Table I): a terminal module that counts the
// messages sent to it and carries that counter across StateUpdate, so the
// upgrade protocol's state-transfer path is exercised end to end.
package dummy

import (
	"sync/atomic"

	"labstor/internal/core"
	"labstor/internal/vtime"
)

// Type is the registered module type name.
const Type = "labstor.dummy"

func init() {
	core.RegisterType(Type, func() core.Module { return &Dummy{} })
}

// Dummy is the message-counting module instance.
type Dummy struct {
	core.Base
	cost     vtime.Duration
	messages atomic.Int64
	repairs  atomic.Int64
}

// Info describes the module.
func (d *Dummy) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: Type, Version: "1.0", Consumes: core.APIAny, Produces: core.APIAny}
}

// Configure reads the per-message modeled cost (attr "cost_ns", default
// 500ns).
func (d *Dummy) Configure(cfg core.Config, env *core.Env) error {
	if err := d.Base.Configure(cfg, env); err != nil {
		return err
	}
	ns, err := cfg.Int("cost_ns", 500)
	if err != nil {
		return err
	}
	if ns < 0 {
		ns = 500
	}
	d.cost = vtime.Duration(ns)
	return nil
}

// Process counts the message; if the vertex has downstream outputs the
// request is forwarded, otherwise it completes here.
func (d *Dummy) Process(e *core.Exec, req *core.Request) error {
	req.Charge("dummy", d.cost)
	d.messages.Add(1)
	req.Result = d.messages.Load()
	if e.HasNext(req) {
		return e.Next(req)
	}
	return nil
}

// Messages returns the processed-message counter.
func (d *Dummy) Messages() int64 { return d.messages.Load() }

// Repairs returns how many times StateRepair ran.
func (d *Dummy) Repairs() int64 { return d.repairs.Load() }

// StateUpdate transfers the message counter from the previous instance —
// "the state needed to be transferred was simply a few bytes".
func (d *Dummy) StateUpdate(prev core.Module) error {
	if old, ok := prev.(*Dummy); ok {
		d.messages.Store(old.messages.Load())
	}
	return nil
}

// StateRepair counts crash repairs (diagnostics for recovery tests).
func (d *Dummy) StateRepair() error {
	d.repairs.Add(1)
	return nil
}
