package core

import (
	"fmt"
	"strings"

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
type Exec struct {
	Registry  *Registry
	Namespace *Namespace
	Model     *vtime.CostModel
	// WorkerID identifies the executing worker (-1 for client-side sync
	// execution).
	WorkerID int
}

// NewExec returns an Exec over the given registry and namespace.
func NewExec(reg *Registry, ns *Namespace, model *vtime.CostModel, workerID int) *Exec {
	if model == nil {
		model = vtime.Default()
	}
	return &Exec{Registry: reg, Namespace: ns, Model: model, WorkerID: workerID}
}

// Submit pins stack's current plan on req and runs req from the entry
// vertex to the end of the DAG walk. The caller is responsible for
// queue-pair transport and completion signaling.
func (e *Exec) Submit(stack *Stack, req *Request) error {
	p := stack.plan.Load()
	if len(p.vertices) == 0 {
		return fmt.Errorf("core: stack %q is empty", stack.Mount)
	}
	req.StackID = stack.ID
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
	saveID := req.StackID
	err := e.Submit(next, req)
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
