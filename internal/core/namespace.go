package core

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
)

// Namespace is the LabStack Namespace: a copy-on-write map from mount
// point to mounted stack with longest-prefix path resolution (as GenericFS
// uses when routing "fs::/b/hi.txt" to the stack mounted at "fs::/b").
type Namespace struct {
	mu     sync.Mutex
	tab    atomic.Pointer[nsTable]
	nextID int // guarded by mu
}

// nsTable is one immutable version of the namespace's maps.
type nsTable struct {
	byPath map[string]*Stack
	byID   map[int]*Stack
}

// NewNamespace returns an empty namespace.
func NewNamespace() *Namespace {
	n := &Namespace{nextID: 1}
	n.tab.Store(&nsTable{byPath: map[string]*Stack{}, byID: map[int]*Stack{}})
	return n
}

// clone copies the current table for a writer holding mu.
func (n *Namespace) clone() *nsTable {
	t := n.tab.Load()
	return &nsTable{byPath: maps.Clone(t.byPath), byID: maps.Clone(t.byID)}
}

// Mount inducts a validated stack into the namespace, assigning its ID.
func (n *Namespace) Mount(s *Stack) error {
	mount := CleanMount(s.Mount)
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.tab.Load().byPath[mount]; ok {
		return fmt.Errorf("core: mount point %q already in use", mount)
	}
	s.Mount, s.ID = mount, n.nextID
	n.nextID++
	t := n.clone()
	t.byPath[mount], t.byID[s.ID] = s, s
	n.tab.Store(t)
	return nil
}

// Unmount removes the stack at the given mount point.
func (n *Namespace) Unmount(mount string) error {
	mount = CleanMount(mount)
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.tab.Load().byPath[mount]
	if !ok {
		return fmt.Errorf("core: nothing mounted at %q", mount)
	}
	t := n.clone()
	delete(t.byPath, mount)
	delete(t.byID, s.ID)
	n.tab.Store(t)
	return nil
}

// Lookup returns the stack mounted exactly at mount.
func (n *Namespace) Lookup(mount string) (*Stack, bool) {
	s, ok := n.tab.Load().byPath[CleanMount(mount)]
	return s, ok
}

// ByID returns the stack with the given ID.
func (n *Namespace) ByID(id int) (*Stack, bool) {
	s, ok := n.tab.Load().byID[id]
	return s, ok
}

// Resolve finds the stack whose mount point is the longest prefix of path
// (on path-component boundaries) and returns it with the path remainder.
// It mirrors GenericFS's resolution: exact match first, then parents.
func (n *Namespace) Resolve(path string) (*Stack, string, bool) {
	p := CleanMount(path)
	byPath := n.tab.Load().byPath
	for probe := p; ; {
		if s, ok := byPath[probe]; ok {
			rem := strings.TrimPrefix(p, probe)
			rem = strings.TrimPrefix(rem, "/")
			return s, rem, true
		}
		i := strings.LastIndex(probe, "/")
		if i < 0 {
			break
		}
		if i == 0 {
			// try root mount "/" last
			if s, ok := byPath["/"]; ok {
				return s, strings.TrimPrefix(p, "/"), true
			}
			break
		}
		probe = probe[:i]
	}
	return nil, "", false
}

// Mounts returns all mount points (unordered).
func (n *Namespace) Mounts() []string {
	byPath := n.tab.Load().byPath
	out := make([]string, 0, len(byPath))
	for m := range byPath {
		out = append(out, m)
	}
	return out
}

// Stacks returns all mounted stacks (unordered).
func (n *Namespace) Stacks() []*Stack {
	byID := n.tab.Load().byID
	out := make([]*Stack, 0, len(byID))
	for _, s := range byID {
		out = append(out, s)
	}
	return out
}

// CleanMount normalizes a mount path: ensures a leading slash for
// slash-rooted paths, strips trailing slashes, collapses doubles. Scheme
// prefixes like "fs::/b" are preserved. A path that is already clean — the
// case on every Resolve/Lookup of the hot path — is returned as is, without
// allocating.
func CleanMount(mount string) string {
	scheme, p := "", mount
	if i := strings.Index(mount, "::"); i >= 0 {
		scheme, p = mount[:i+2], mount[i+2:]
	}
	if p != "" && (len(p) == 1 || p[len(p)-1] != '/') && !strings.Contains(p, "//") {
		return mount
	}
	for strings.Contains(p, "//") {
		p = strings.ReplaceAll(p, "//", "/")
	}
	if len(p) > 1 {
		p = strings.TrimRight(p, "/")
	}
	if p == "" {
		p = "/"
	}
	return scheme + p
}
