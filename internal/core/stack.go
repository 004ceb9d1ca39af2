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
	gate     <-chan struct{} // on a gated copy (Stack.Gate): new top-level walks wait on it
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
	s.plan.Store(s.compile(vertices))
	return s
}

// compile builds the plan of vs, which must not be modified afterwards.
func (s *Stack) compile(vs []Vertex) *Plan {
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
	return p
}

// Plan returns the stack's current plan.
func (s *Stack) Plan() *Plan { return s.plan.Load() }

// Reaches reports whether the plan holds a vertex named in uuids, or
// forwards through a "stack:" output to a mount in mounts.
func (p *Plan) Reaches(uuids, mounts map[string]bool) bool {
	for _, v := range p.vertices {
		if uuids[v.UUID] {
			return true
		}
		for _, o := range v.Outputs {
			if m, ok := strings.CutPrefix(o, "stack:"); ok && mounts[CleanMount(m)] {
				return true
			}
		}
	}
	return false
}

// Gate publishes a gated copy of the stack's current plan: top-level walks
// wait until gate is closed (Exec.Submit), nested ones walk it as the plan.
// ungate republishes the plan unless an edit has replaced the copy.
func (s *Stack) Gate(gate <-chan struct{}) (ungate func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.plan.Load()
	g := &Plan{stack: s, vertices: p.vertices, index: p.index, outs: p.outs, gate: gate}
	s.plan.Store(g)
	return func() { s.plan.CompareAndSwap(g, p) }
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

// Modify applies a modify_stack edit (dynamic semantics imposition, e.g.
// adding a compression LabMod for a period of time): a non-nil v is
// inserted after the vertex `after`, then the vertex `remove`, if named, is
// removed. The edited DAG is validated against reg (Validate) and only
// then published, so an edit that fails leaves the stack as it was.
func (s *Stack) Modify(reg *Registry, after string, v *Vertex, remove string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.plan.Load()
	var err error
	if v != nil {
		p, err = p.insert(after, *v)
	}
	if remove != "" && err == nil {
		p, err = p.remove(remove)
	}
	if err == nil {
		err = p.validate(reg)
	}
	if err == nil {
		s.plan.Store(p)
	}
	return err
}

// insert returns p with v inserted after the vertex with UUID `after`. The
// new vertex inherits `after`'s outputs and `after` is rewired to point at
// it. An empty `after` prepends a new entry vertex.
func (p *Plan) insert(after string, v Vertex) (*Plan, error) {
	s := p.stack
	if _, dup := p.index[v.UUID]; dup {
		return nil, fmt.Errorf("core: vertex %q already in stack %q", v.UUID, s.Mount)
	}
	i, ok := p.index[after]
	switch {
	case after == "":
		i = -1
		if len(p.vertices) > 0 && len(v.Outputs) == 0 {
			v.Outputs = []string{p.vertices[0].UUID}
		}
	case !ok:
		return nil, fmt.Errorf("core: vertex %q not in stack %q", after, s.Mount)
	case len(v.Outputs) == 0:
		v.Outputs = append([]string(nil), p.vertices[i].Outputs...)
	}
	vs := append(append([]Vertex(nil), p.vertices[:i+1]...), v)
	if i >= 0 {
		vs[i].Outputs = []string{v.UUID}
	}
	return s.compile(append(vs, p.vertices[i+1:]...)), nil
}

// remove returns p without the named vertex, its inputs spliced to its
// outputs. Removing the entry vertex promotes its first output to entry.
func (p *Plan) remove(uuid string) (*Plan, error) {
	i, ok := p.index[uuid]
	if !ok {
		return nil, fmt.Errorf("core: vertex %q not in stack %q", uuid, p.stack.Mount)
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
	return p.stack.compile(vs), nil
}

// ErrCycle is returned by Validate for cyclic DAGs.
var ErrCycle = errors.New("core: stack DAG contains a cycle")

// Validate checks the stack: non-empty, referenced outputs exist (or are
// stack references), the DAG is acyclic, depth within bounds, and adjacent
// module interfaces are compatible per the registry's instances.
func (s *Stack) Validate(reg *Registry) error { return s.plan.Load().validate(reg) }

// validate is Validate for plan p.
func (p *Plan) validate(reg *Registry) error {
	s := p.stack
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
