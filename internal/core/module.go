package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"labstor/internal/device"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

// API classifies the interface a LabMod implements (its "type" in the
// paper's four-element decomposition). Stack validation uses it to check
// that adjacent vertices speak compatible interfaces.
type API string

// Module API classes.
const (
	APIPosix   API = "posix"   // POSIX file requests in, block requests out
	APIKV      API = "kv"      // put/get/del requests
	APIBlock   API = "block"   // block requests in, block requests out
	APIDriver  API = "driver"  // block requests in, device commands out
	APIGeneric API = "generic" // interface multiplexers (GenericFS/GenericKVS)
	APIAny     API = "any"     // diagnostic / pass-through modules
)

// ErrNotSupported is returned by modules for ops outside their interface.
var ErrNotSupported = errors.New("core: operation not supported by module")

// ModuleInfo describes a LabMod implementation.
type ModuleInfo struct {
	// Type is the implementation name (e.g. "labstor.labfs").
	Type string
	// Version is the implementation version; live upgrades replace an
	// instance with one of the same Type and (usually) newer Version.
	Version string
	// Consumes and Produces describe the module's upstream and downstream
	// interfaces for stack validation.
	Consumes API
	Produces API
}

// Config carries a vertex's initialization attributes from the LabStack
// spec to the module instance.
type Config struct {
	// UUID is the human-readable unique instance name from the spec.
	UUID string
	// Attrs are free-form key/value attributes from the spec vertex.
	Attrs map[string]string

	// read records the keys Attr and Int were asked for, when the
	// registry tracks them (nil: untracked).
	read map[string]bool
}

// Attr returns the attribute value or a default.
func (c Config) Attr(key, def string) string {
	if c.read != nil {
		c.read[key] = true
	}
	if v, ok := c.Attrs[key]; ok {
		return v
	}
	return def
}

// Int returns the integer attribute key, or def when the vertex does not
// set it. A value that is not an integer is an error naming the vertex, the
// attribute and the value: a mod's Configure returns it, so the mount fails
// instead of running on a fallback.
func (c Config) Int(key string, def int) (int, error) {
	if c.read != nil {
		c.read[key] = true
	}
	v, ok := c.Attrs[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil {
		return 0, fmt.Errorf("core: vertex %q attribute %q: %q is not an integer", c.UUID, key, v)
	}
	return n, nil
}

// Env is the environment the Runtime hands to module instances: simulated
// devices, the cost model for virtual-time charges, and the runtime metrics
// registry LabMods publish op counters into.
type Env struct {
	Devices map[string]*device.Device
	Model   *vtime.CostModel
	Metrics *telemetry.Registry
}

// NewEnv returns an Env with the given cost model (Default if nil).
func NewEnv(model *vtime.CostModel) *Env {
	if model == nil {
		model = vtime.Default()
	}
	return &Env{
		Devices: make(map[string]*device.Device),
		Model:   model,
		Metrics: telemetry.NewRegistry(),
	}
}

// AddDevice registers a simulated device under its name.
func (e *Env) AddDevice(d *device.Device) { e.Devices[d.Name] = d }

// Device returns a registered device.
func (e *Env) Device(name string) (*device.Device, error) {
	d, ok := e.Devices[name]
	if !ok {
		return nil, fmt.Errorf("core: no device %q", name)
	}
	return d, nil
}

// Module is the LabMod contract. A LabMod is a single-purpose,
// self-contained code object; instances live in the Module Registry and are
// addressed by UUID from LabStack DAGs.
//
// Process implements the module's "operation": it consumes the request,
// optionally forwards (transformed or spawned) requests downstream via the
// Executor, and returns when its part of the request is complete.
//
// The lifecycle APIs required by the platform (paper §III-A):
//   - StateUpdate copies state from the previous instance during a live
//     upgrade;
//   - StateRepair revalidates/rebuilds state after a Runtime crash.
//
// The paper's third lifecycle API, a per-request processing-time estimate,
// is not part of the contract: the Work Orchestrator classifies queues by
// the per-request CPU it measures, not by an estimate each module declares.
type Module interface {
	Info() ModuleInfo
	Configure(cfg Config, env *Env) error
	Process(e *Exec, req *Request) error
	StateUpdate(prev Module) error
	StateRepair() error
}

// Base provides default lifecycle implementations modules can embed.
type Base struct {
	Cfg Config
	Env *Env
}

// Configure stores the config and environment.
func (b *Base) Configure(cfg Config, env *Env) error {
	b.Cfg = cfg
	b.Env = env
	return nil
}

// ModConfig exposes the stored config (used by live upgrades to carry the
// old instance's attributes to the replacement), without the record of the
// keys it was read for.
func (b *Base) ModConfig() Config {
	cfg := b.Cfg
	cfg.read = nil
	return cfg
}

// StateUpdate is a no-op by default (stateless module).
func (b *Base) StateUpdate(prev Module) error { return nil }

// StateRepair is a no-op by default.
func (b *Base) StateRepair() error { return nil }

// Factory constructs a fresh, unconfigured module instance of one type.
type Factory func() Module

var (
	factoryMu sync.RWMutex
	factories = make(map[string]Factory)
)

// RegisterType registers a module implementation under its type name.
// It is called from mod packages' init functions; installing a "repo" in
// the paper's sense corresponds to importing its package.
func RegisterType(name string, f Factory) {
	factoryMu.Lock()
	defer factoryMu.Unlock()
	factories[name] = f
}

// NewModule instantiates a registered module type.
func NewModule(name string) (Module, error) {
	factoryMu.RLock()
	f, ok := factories[name]
	factoryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown module type %q", name)
	}
	return f(), nil
}

// Types returns the registered module type names (unordered).
func Types() []string {
	factoryMu.RLock()
	defer factoryMu.RUnlock()
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	return out
}
