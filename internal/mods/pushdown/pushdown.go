package pushdown

import (
	"fmt"
	"strings"

	"labstor/internal/core"
	"labstor/internal/telemetry"
)

// Type is the registered module type name.
const Type = "labstor.pushdown"

func init() {
	core.RegisterType(Type, func() core.Module { return &Mod{} })
}

// Stats bundles the pushdown.* runtime counters. Both the gate vertex and
// the executing mods (labkvs/labfs) publish into the same registry-backed
// counters, so one Counters call per Configure is cheap and idempotent.
type Stats struct {
	Execs       *telemetry.Counter // scans executed
	Records     *telemetry.Counter // records evaluated
	Bytes       *telemetry.Counter // record bytes evaluated in place
	Matches     *telemetry.Counter // records matched
	EmitBytes   *telemetry.Counter // result bytes emitted (filter mode)
	BudgetTrips *telemetry.Counter // scans aborted by byte/step budgets
	Denied      *telemetry.Counter // programs rejected by policy
}

// Counters returns the pushdown.* counters from m (nil-safe: returns
// throwaway counters so callers can Inc unconditionally).
func Counters(m *telemetry.Registry) Stats {
	if m == nil {
		return Stats{
			Execs: &telemetry.Counter{}, Records: &telemetry.Counter{},
			Bytes: &telemetry.Counter{}, Matches: &telemetry.Counter{},
			EmitBytes: &telemetry.Counter{}, BudgetTrips: &telemetry.Counter{},
			Denied: &telemetry.Counter{},
		}
	}
	return Stats{
		Execs:       m.Counter("pushdown.execs"),
		Records:     m.Counter("pushdown.records"),
		Bytes:       m.Counter("pushdown.bytes"),
		Matches:     m.Counter("pushdown.matches"),
		EmitBytes:   m.Counter("pushdown.emit_bytes"),
		BudgetTrips: m.Counter("pushdown.budget_trips"),
		Denied:      m.Counter("pushdown.denied"),
	}
}

// Mod is the pushdown gate vertex: a policy/annotation LabMod placed
// above the executing store (labkvs/labfs). It admits program-carrying
// scans against a stack-wide allow-list, clamps their execution budgets,
// rewrites the program reference to its canonical content-hash ref, and
// forwards. Execution itself happens where the data lives — in the store
// mods below, against in-place buffer views. Requests that are not
// program scans pass through untouched.
//
// Attrs: allow (comma-separated patterns, default "*" — stacks without a
// serve front end trust their local callers), max_scan_mb, max_steps,
// registry programs via "prog.<name>" attributes.
type Mod struct {
	core.Base

	pol   *Policy
	stats Stats
}

// Info describes the module.
func (m *Mod) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: Type, Version: "1.0", Consumes: core.APIAny, Produces: core.APIAny}
}

// Configure builds the gate policy from vertex attributes.
func (m *Mod) Configure(cfg core.Config, env *core.Env) error {
	if err := m.Base.Configure(cfg, env); err != nil {
		return err
	}
	allow := []string{"*"}
	if raw := cfg.Attr("allow", ""); raw != "" {
		allow = allow[:0]
		for _, pat := range strings.Split(raw, ",") {
			if pat = strings.TrimSpace(pat); pat != "" {
				allow = append(allow, pat)
			}
		}
	}
	var caps Caps
	mb, err := cfg.Int("max_scan_mb", 0)
	if err != nil {
		return err
	}
	if mb > 0 {
		caps.MaxBytes = int64(mb) << 20
	}
	st, err := cfg.Int("max_steps", 0)
	if err != nil {
		return err
	}
	if st > 0 {
		caps.MaxSteps = int64(st)
	}
	m.pol = NewPolicy(Default, allow, caps)
	for name := range cfg.Attrs {
		if !strings.HasPrefix(name, "prog.") {
			continue
		}
		if _, err := Default.Register(strings.TrimPrefix(name, "prog."), cfg.Attr(name, "")); err != nil {
			return fmt.Errorf("pushdown: vertex %q attr %q: %w", cfg.UUID, name, err)
		}
	}
	m.stats = Counters(env.Metrics)
	return nil
}

// Process gates program scans and forwards everything else untouched.
func (m *Mod) Process(e *core.Exec, req *core.Request) error {
	if req.Op != core.OpScan || req.Prog == "" {
		return e.Next(req)
	}
	req.Charge("pushdown_gate", e.Model.ModLookup)
	prog, err := m.pol.Admit("", req.Prog)
	if err != nil {
		m.stats.Denied.Inc()
		req.Err = err
		return nil
	}
	req.Prog = prog.Ref
	m.pol.Clamp("", req)
	return e.Next(req)
}
