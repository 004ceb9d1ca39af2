package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// ExecMode selects where a stack's DAG executes (paper §III-B governing
// rules).
type ExecMode uint8

const (
	// ExecAsync executes the DAG in the Runtime: the client submits the
	// request over a shared-memory queue pair and a worker walks the DAG.
	// This is the centralized, secure mode (Lab-All / Lab-Min).
	ExecAsync ExecMode = iota
	// ExecSync executes the DAG directly in the client thread with no IPC —
	// the decentralized mode (Lab-D / "Minimal").
	ExecSync
)

func (m ExecMode) String() string {
	if m == ExecSync {
		return "sync"
	}
	return "async"
}

// Vertex is one node of a LabStack DAG.
type Vertex struct {
	// UUID is the human-readable unique instance name (Module Registry key).
	UUID string
	// Type is the module implementation to instantiate if the UUID is new.
	Type string
	// Attrs are initialization attributes for the instance.
	Attrs map[string]string
	// Outputs lists downstream vertex UUIDs (or "stack:<mount>" references
	// to other mounted stacks).
	Outputs []string
}

// Rules are a stack's governing rules.
type Rules struct {
	ExecMode ExecMode
	// Priority is a scheduling hint (higher = more latency sensitive).
	Priority int
	// Owners are UIDs allowed to modify the stack (empty = creator only).
	Owners []int
	// MaxDepth bounds DAG length at validation time (0 = platform default).
	MaxDepth int
}

// Stack is a mounted LabStack: a mount point, governing rules and a DAG of
// LabMod vertices, entry first.
type Stack struct {
	ID    int
	Mount string
	Rules Rules

	mu   sync.Mutex           // serializes edits, which publish a new plan
	plan atomic.Pointer[Plan] // the current DAG; readers take no lock
}

// Plan is one compiled, immutable version of a stack's DAG. A request walks
// the plan it was submitted on, by index, whatever edits follow.
type Plan struct {
	stack    *Stack
	vertices []Vertex
	index    map[string]int // uuid -> position in vertices
	outs     [][]int        // position of vertices[i].Outputs[k]; -1 for "stack:" references
	mods     atomic.Pointer[planMods]
}

// planMods is a plan's vertices resolved against one registry table.
type planMods struct {
	tab  *map[string]Module
	mods []Module // nil where the registry has no instance
}

// NewStack builds a stack from an ordered vertex list; the first vertex is
// the entry point.
func NewStack(mount string, rules Rules, vertices []Vertex) *Stack {
	s := &Stack{Mount: mount, Rules: rules}
	s.publish(vertices)
	return s
}

// publish compiles vs (not to be modified afterwards) into the current plan.
func (s *Stack) publish(vs []Vertex) {
	p := &Plan{stack: s, vertices: vs, index: make(map[string]int, len(vs)), outs: make([][]int, len(vs))}
	for i, v := range vs {
		p.index[v.UUID] = i
	}
	for i, v := range vs {
		p.outs[i] = make([]int, len(v.Outputs))
		for k, o := range v.Outputs {
			p.outs[i][k] = -1
			if j, ok := p.index[o]; ok {
				p.outs[i][k] = j
			}
		}
	}
	s.plan.Store(p)
}

// modules returns the instances behind the vertices in reg's current table
// (nil where it has none), cached on the plan until reg publishes another.
func (p *Plan) modules(reg *Registry) []Module {
	tab := reg.tab.Load()
	if pm := p.mods.Load(); pm != nil && pm.tab == tab {
		return pm.mods
	}
	pm := &planMods{tab: tab, mods: make([]Module, len(p.vertices))}
	for i, v := range p.vertices {
		pm.mods[i] = (*tab)[v.UUID]
	}
	p.mods.Store(pm)
	return pm.mods
}

// Entry returns the entry vertex UUID ("" for an empty stack).
func (s *Stack) Entry() string {
	if p := s.plan.Load(); len(p.vertices) > 0 {
		return p.vertices[0].UUID
	}
	return ""
}

// Vertices returns a copy of the DAG's vertex list.
func (s *Stack) Vertices() []Vertex {
	return append([]Vertex(nil), s.plan.Load().vertices...)
}

// Vertex returns the vertex with the given UUID.
func (s *Stack) Vertex(uuid string) (Vertex, bool) {
	p := s.plan.Load()
	i, ok := p.index[uuid]
	if !ok {
		return Vertex{}, false
	}
	return p.vertices[i], true
}

// Outputs returns the downstream UUIDs of the named vertex.
func (s *Stack) Outputs(uuid string) []string {
	v, _ := s.Vertex(uuid)
	return v.Outputs
}

// Len returns the number of vertices.
func (s *Stack) Len() int { return len(s.plan.Load().vertices) }

// InsertAfter inserts a new vertex after the vertex with UUID `after`
// (modify_stack: dynamic semantics imposition, e.g. adding a compression
// LabMod for a period of time). The new vertex inherits `after`'s outputs
// and `after` is rewired to point at it. An empty `after` prepends a new
// entry vertex.
func (s *Stack) InsertAfter(after string, v Vertex) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.plan.Load()
	if _, dup := p.index[v.UUID]; dup {
		return fmt.Errorf("core: vertex %q already in stack %q", v.UUID, s.Mount)
	}
	i, ok := p.index[after]
	switch {
	case after == "":
		i = -1
		if len(p.vertices) > 0 && len(v.Outputs) == 0 {
			v.Outputs = []string{p.vertices[0].UUID}
		}
	case !ok:
		return fmt.Errorf("core: vertex %q not in stack %q", after, s.Mount)
	case len(v.Outputs) == 0:
		v.Outputs = append([]string(nil), p.vertices[i].Outputs...)
	}
	vs := append(append([]Vertex(nil), p.vertices[:i+1]...), v)
	if i >= 0 {
		vs[i].Outputs = []string{v.UUID}
	}
	s.publish(append(vs, p.vertices[i+1:]...))
	return nil
}

// RemoveVertex removes the named vertex, splicing its inputs to its outputs.
// Removing the entry vertex promotes its first output to entry.
func (s *Stack) RemoveVertex(uuid string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.plan.Load()
	i, ok := p.index[uuid]
	if !ok {
		return fmt.Errorf("core: vertex %q not in stack %q", uuid, s.Mount)
	}
	removed := p.vertices[i]
	vs := make([]Vertex, 0, len(p.vertices)-1)
	for j, v := range p.vertices {
		if j == i {
			continue
		}
		outs := make([]string, 0, len(v.Outputs))
		for _, o := range v.Outputs {
			splice := []string{o}
			if o == uuid {
				splice = removed.Outputs
			}
			for _, o := range splice {
				if !slices.Contains(outs, o) {
					outs = append(outs, o)
				}
			}
		}
		v.Outputs = outs
		vs = append(vs, v)
	}
	s.publish(vs)
	return nil
}

// ErrCycle is returned by Validate for cyclic DAGs.
var ErrCycle = errors.New("core: stack DAG contains a cycle")

// Validate checks the stack: non-empty, referenced outputs exist (or are
// stack references), the DAG is acyclic, depth within bounds, and adjacent
// module interfaces are compatible per the registry's instances.
func (s *Stack) Validate(reg *Registry) error {
	p := s.plan.Load()
	if len(p.vertices) == 0 {
		return fmt.Errorf("core: stack %q has no vertices", s.Mount)
	}
	maxDepth := s.Rules.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 64
	}
	if len(p.vertices) > maxDepth {
		return fmt.Errorf("core: stack %q exceeds max depth %d", s.Mount, maxDepth)
	}
	for i, v := range p.vertices {
		for k, o := range v.Outputs {
			if p.outs[i][k] < 0 && !strings.HasPrefix(o, "stack:") {
				return fmt.Errorf("core: stack %q vertex %q references unknown output %q", s.Mount, v.UUID, o)
			}
		}
	}
	// Cycle check (DFS with colors).
	const white, gray, black = 0, 1, 2
	color := make([]int, len(p.vertices))
	var visit func(i int) error
	visit = func(i int) error {
		color[i] = gray
		for _, j := range p.outs[i] {
			if j < 0 {
				continue
			}
			switch color[j] {
			case gray:
				return fmt.Errorf("%w: via %q -> %q", ErrCycle, p.vertices[i].UUID, p.vertices[j].UUID)
			case white:
				if err := visit(j); err != nil {
					return err
				}
			}
		}
		color[i] = black
		return nil
	}
	for i := range p.vertices {
		if color[i] == white {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	// Interface compatibility: upstream Produces must match downstream
	// Consumes (or either side is APIAny); mount checks uninstantiated ones.
	if reg != nil {
		mods := p.modules(reg)
		for i, v := range p.vertices {
			for _, j := range p.outs[i] {
				if j < 0 || mods[i] == nil || mods[j] == nil {
					continue
				}
				up, down := mods[i].Info().Produces, mods[j].Info().Consumes
				if up != APIAny && down != APIAny && up != down {
					return fmt.Errorf("core: stack %q: %q produces %q but %q consumes %q",
						s.Mount, v.UUID, up, p.vertices[j].UUID, down)
				}
			}
		}
	}
	return nil
}
