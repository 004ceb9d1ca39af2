package core

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// Registry is the Module Registry: a copy-on-write map from LabMod UUID to
// the live module instance (in the paper, a hashmap in shared memory
// holding instances and their entrypoints). Writers serialize on mu and
// publish a new table; readers take no lock. Every hop resolves against the
// current table, so a Swap takes effect for all subsequent requests.
type Registry struct {
	mu      sync.Mutex
	tab     atomic.Pointer[map[string]Module]
	version map[string]int // swap generation per UUID (guarded by mu)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{version: make(map[string]int)}
	r.tab.Store(&map[string]Module{})
	return r
}

// mods returns the current table, which must not be modified.
func (r *Registry) mods() map[string]Module { return *r.tab.Load() }

// set publishes a copy of the table with uuid bound to m (nil: removed).
func (r *Registry) set(uuid string, m Module) {
	mods := maps.Clone(r.mods())
	if m == nil {
		delete(mods, uuid)
	} else {
		mods[uuid] = m
	}
	r.tab.Store(&mods)
}

// Instantiate creates, configures, and registers a module instance for the
// given UUID if one does not already exist (mount only instantiates LabMods
// whose UUID is absent, so stacks can share instances). It returns the
// registered instance.
func (r *Registry) Instantiate(uuid, typeName string, cfg Config, env *Env) (Module, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.mods()[uuid]; ok {
		return m, nil
	}
	m, err := NewModule(typeName)
	if err != nil {
		return nil, err
	}
	cfg.UUID = uuid
	if err := m.Configure(cfg, env); err != nil {
		return nil, fmt.Errorf("configure %q (%s): %w", uuid, typeName, err)
	}
	r.set(uuid, m)
	return m, nil
}

// Register inserts a pre-built instance (used by tests). Workers and
// clients walk the one registry: one instance per UUID.
func (r *Registry) Register(uuid string, m Module) {
	r.mu.Lock()
	r.set(uuid, m)
	r.mu.Unlock()
}

// Get returns the live instance for a UUID.
func (r *Registry) Get(uuid string) (Module, error) {
	m, ok := r.mods()[uuid]
	if !ok {
		return nil, fmt.Errorf("core: module %q not in registry", uuid)
	}
	return m, nil
}

// Swap replaces the instance behind uuid with next after transferring state
// via next.StateUpdate(old). This is the core of both upgrade protocols.
func (r *Registry) Swap(uuid string, next Module) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.mods()[uuid]
	if !ok {
		return fmt.Errorf("core: module %q not in registry", uuid)
	}
	if err := next.StateUpdate(old); err != nil {
		return fmt.Errorf("state update for %q: %w", uuid, err)
	}
	r.set(uuid, next)
	r.version[uuid]++
	return nil
}

// Generation returns how many times uuid has been swapped.
func (r *Registry) Generation(uuid string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version[uuid]
}

// Remove deletes an instance.
func (r *Registry) Remove(uuid string) {
	r.mu.Lock()
	r.set(uuid, nil)
	delete(r.version, uuid)
	r.mu.Unlock()
}

// UUIDs returns the registered instance names (unordered).
func (r *Registry) UUIDs() []string {
	out := make([]string, 0, len(r.mods()))
	for u := range r.mods() {
		out = append(out, u)
	}
	return out
}

// RepairAll invokes StateRepair on every instance (crash-recovery path).
// It returns the first error encountered but repairs all instances.
func (r *Registry) RepairAll() error {
	var first error
	for uuid, m := range r.mods() {
		if err := m.StateRepair(); err != nil && first == nil {
			first = fmt.Errorf("repair %q: %w", uuid, err)
		}
	}
	return first
}
