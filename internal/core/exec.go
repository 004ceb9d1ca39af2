package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"labstor/internal/vtime"
)

// Exec walks requests through LabStack DAGs. One Exec exists per executing
// context — a Runtime worker (async mode) or a client thread (sync mode).
//
// The walk is a middleware chain: Exec delivers the request to the current
// vertex's module, which charges its stage cost, transforms or spawns
// requests, and calls Next/NextTo to forward downstream. Every hop steps by
// index through the Plan that Submit pinned and resolves its module in the
// Exec's Registry, so a Swap (hot plug / live upgrade) applies to the next.
//
// An Exec is also its walker's slot in the control plane's quiescence
// (Walking, Stack.Gate).
type Exec struct {
	Registry  *Registry
	Namespace *Namespace
	Model     *vtime.CostModel
	// WorkerID identifies the executing worker (-1 for client-side sync
	// execution).
	WorkerID int
	// Admit, when set, is asked before every top-level walk, once Walking
	// names its plan; an error ends the submission with the slot empty.
	Admit func(*Request) error

	// slot is the plan of the top-level walk in progress (nil when idle), on
	// a cache line of its own: only its walker writes it.
	_    [56]byte
	slot atomic.Pointer[Plan]
	_    [56]byte
}

// NewExec returns an Exec over the given registry and namespace.
func NewExec(reg *Registry, ns *Namespace, model *vtime.CostModel, workerID int) *Exec {
	if model == nil {
		model = vtime.Default()
	}
	return &Exec{Registry: reg, Namespace: ns, Model: model, WorkerID: workerID}
}

// Walking returns the plan of the top-level walk in progress, or nil.
func (e *Exec) Walking() *Plan { return e.slot.Load() }

// Submit runs req from the entry vertex of stack's current plan to the end
// of the DAG walk. The caller is responsible for queue-pair transport and
// completion signaling.
//
// A gated plan is waited out. Otherwise the slot names the plan before
// Submit loads the stack's plan again, retrying if it changed, so a control
// plane that gates the stack and then reads the slot finds the walk or is
// seen by it.
func (e *Exec) Submit(stack *Stack, req *Request) error {
	for {
		p := stack.plan.Load()
		if p.gate != nil {
			<-p.gate // the control plane reopens the stack, at the latest on shutdown
			continue
		}
		e.slot.Store(p)
		if stack.plan.Load() != p {
			e.slot.Store(nil)
			continue
		}
		var err error
		if e.Admit != nil {
			err = e.Admit(req)
		}
		if err == nil {
			err = e.walk(p, req)
		}
		e.slot.Store(nil)
		return err
	}
}

// walk pins p on req and runs it from p's entry vertex.
func (e *Exec) walk(p *Plan, req *Request) error {
	if len(p.vertices) == 0 {
		return fmt.Errorf("core: stack %q is empty", p.stack.Mount)
	}
	req.StackID = p.stack.ID
	req.plan = p
	return e.deliver(0, req)
}

// deliver runs vertex i of req's plan on req.
func (e *Exec) deliver(i int, req *Request) error {
	m := req.plan.modules(e.Registry)[i]
	if m == nil {
		return fmt.Errorf("core: module %q not in registry", req.plan.vertices[i].UUID)
	}
	req.Charge("registry", e.Model.ModLookup)
	prev := req.vertex
	req.vertex = i
	err := m.Process(e, req)
	req.vertex = prev
	if err != nil && req.Err == nil {
		req.Err = err
	}
	return err
}

// Next forwards req to the current vertex's first output. Modules call this
// after transforming the request in place. A vertex with no outputs
// completes the chain (Next is then an error — terminal modules such as
// drivers must not call it).
func (e *Exec) Next(req *Request) error {
	p := req.plan
	if len(p.outs[req.vertex]) == 0 {
		return fmt.Errorf("core: vertex %q has no outputs (stack %q)", p.vertices[req.vertex].UUID, p.stack.Mount)
	}
	return e.forward(0, req)
}

// NextTo forwards req to a specific downstream vertex UUID (for fan-out
// vertices with multiple outputs).
func (e *Exec) NextTo(req *Request, uuid string) error {
	v := req.plan.vertices[req.vertex]
	for k, o := range v.Outputs {
		if o == uuid {
			return e.forward(k, req)
		}
	}
	return fmt.Errorf("core: %q is not an output of %q", uuid, v.UUID)
}

// HasNext reports whether the current vertex has downstream outputs.
func (e *Exec) HasNext(req *Request) bool {
	return req.plan != nil && len(req.plan.outs[req.vertex]) > 0
}

// forward delivers req to output k of its current vertex: a vertex of its
// plan, or the entry of the mounted stack a "stack:" output names.
func (e *Exec) forward(k int, req *Request) error {
	p := req.plan
	if j := p.outs[req.vertex][k]; j >= 0 {
		return e.deliver(j, req)
	}
	out := p.vertices[req.vertex].Outputs[k]
	if e.Namespace == nil {
		return fmt.Errorf("core: stack reference %q without namespace", out)
	}
	next, ok := e.Namespace.Lookup(strings.TrimPrefix(out, "stack:"))
	if !ok {
		return fmt.Errorf("core: stack reference %q not mounted", out)
	}
	// A nested walk is part of the top-level one. It neither takes the slot
	// nor waits at a gate: the control plane that gated next waits for this
	// walk to end.
	saveID := req.StackID
	err := e.walk(next.plan.Load(), req)
	req.plan, req.StackID = p, saveID
	return err
}

// SpawnNext runs a child request through the remainder of the DAG
// (downstream of the parent's current vertex) and absorbs its clock and
// trace back into the parent. This is the "filesystem op spawns block I/O
// requests" pattern.
func (e *Exec) SpawnNext(parent, child *Request) error {
	child.plan = parent.plan
	child.vertex = parent.vertex
	child.Clock = parent.Clock
	err := e.Next(child)
	parent.Absorb(child)
	return err
}
