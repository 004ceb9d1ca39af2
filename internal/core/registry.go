package core

import (
	"fmt"
	"maps"
	"slices"
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
	decls   map[string]decl // how each instantiated UUID was declared (guarded by mu)
	version map[string]int  // swap generation per UUID (guarded by mu)
}

// decl is the type and attributes a UUID was first instantiated with.
type decl struct {
	typ   string
	attrs map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{decls: make(map[string]decl), version: make(map[string]int)}
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
// registered instance. Configure must read every attribute the vertex
// sets: one it never asked for (a misspelt or retired key) fails the
// instantiation. A later vertex that names an existing UUID may leave
// attributes out, but it may not change the type or give an attribute
// another value: the shared instance would silently ignore it.
func (r *Registry) Instantiate(uuid, typeName string, cfg Config, env *Env) (Module, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.mods()[uuid]; ok {
		if d, ok := r.decls[uuid]; ok {
			if err := d.check(uuid, typeName, cfg.Attrs); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	m, err := NewModule(typeName)
	if err != nil {
		return nil, err
	}
	cfg.UUID = uuid
	cfg.read = make(map[string]bool, len(cfg.Attrs))
	if err := m.Configure(cfg, env); err != nil {
		return nil, fmt.Errorf("configure %q (%s): %w", uuid, typeName, err)
	}
	for _, k := range sortedKeys(cfg.Attrs) {
		if !cfg.read[k] {
			return nil, fmt.Errorf("core: vertex %q (%s) sets attribute %q, which the module does not read", uuid, typeName, k)
		}
	}
	r.set(uuid, m)
	r.decls[uuid] = decl{typ: typeName, attrs: maps.Clone(cfg.Attrs)}
	return m, nil
}

// check fails when a vertex redeclares uuid with another type or another
// value for one of its attributes.
func (d decl) check(uuid, typeName string, attrs map[string]string) error {
	if typeName != d.typ {
		return fmt.Errorf("core: vertex %q is a %s instance, not %s", uuid, d.typ, typeName)
	}
	for _, k := range sortedKeys(attrs) {
		was, ok := d.attrs[k]
		switch {
		case !ok:
			return fmt.Errorf("core: vertex %q attribute %q: %q, but its instance was configured without it", uuid, k, attrs[k])
		case attrs[k] != was:
			return fmt.Errorf("core: vertex %q attribute %q: %q, but its instance was configured with %q", uuid, k, attrs[k], was)
		}
	}
	return nil
}

// sortedKeys returns attrs' keys in order, so an error names the same key
// on every run.
func sortedKeys(attrs map[string]string) []string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Register inserts a pre-built instance (used by tests). Workers and
// clients walk the one registry: one instance per UUID.
func (r *Registry) Register(uuid string, m Module) {
	r.mu.Lock()
	r.set(uuid, m)
	delete(r.decls, uuid)
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
	delete(r.decls, uuid)
	delete(r.version, uuid)
	r.mu.Unlock()
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
