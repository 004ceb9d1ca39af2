// Package modtest provides the shared harness LabMod unit tests use to
// exercise a module in isolation or in a small chain — the "debugging mode
// that allows LabMods to be run in isolation" of the paper, as a test
// library.
package modtest

import (
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
)

// Harness hosts modules over one simulated device.
type Harness struct {
	Env      *core.Env
	Registry *core.Registry
	Exec     *core.Exec
	Dev      *device.Device
	NS       *core.Namespace
}

// New builds a harness with one device named "dev0".
func New(t *testing.T, class device.Class, capacity int64) *Harness {
	t.Helper()
	h := &Harness{
		Env:      core.NewEnv(nil),
		Registry: core.NewRegistry(),
		NS:       core.NewNamespace(),
	}
	h.Dev = device.New("dev0", class, capacity)
	h.Env.AddDevice(h.Dev)
	h.Exec = core.NewExec(h.Registry, h.NS, h.Env.Model, 0)
	return h
}

// Chain instantiates the given (uuid, type, attrs) triples as a linear
// stack mounted at mount and returns it.
type ChainVertex struct {
	UUID  string
	Type  string
	Attrs map[string]string
}

// Mount builds, validates and mounts a chain stack.
func (h *Harness) Mount(t *testing.T, mount string, chain ...ChainVertex) *core.Stack {
	t.Helper()
	vs := make([]core.Vertex, len(chain))
	for i, c := range chain {
		attrs := c.Attrs
		if attrs == nil {
			attrs = map[string]string{}
		}
		vs[i] = core.Vertex{UUID: c.UUID, Type: c.Type, Attrs: attrs}
		if i+1 < len(chain) {
			vs[i].Outputs = []string{chain[i+1].UUID}
		}
		if _, err := h.Registry.Instantiate(c.UUID, c.Type, core.Config{Attrs: attrs}, h.Env); err != nil {
			t.Fatalf("instantiate %s (%s): %v", c.UUID, c.Type, err)
		}
	}
	s := core.NewStack(mount, core.Rules{}, vs)
	if err := s.Validate(h.Registry); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := h.NS.Mount(s); err != nil {
		t.Fatalf("mount: %v", err)
	}
	return s
}

// Run submits a request through the stack and fails the test on transport
// errors (the request's own Err is returned for assertion).
func (h *Harness) Run(t *testing.T, s *core.Stack, req *core.Request) error {
	t.Helper()
	if err := h.Exec.Submit(s, req); err != nil && req.Err == nil {
		t.Fatalf("submit: %v", err)
	}
	return req.Err
}

// WriteReq builds a write request.
func WriteReq(path string, off int64, data []byte) *core.Request {
	r := core.NewRequest(core.OpWrite)
	r.Path = path
	r.Flags = core.FlagCreate
	r.Offset = off
	r.Size = len(data)
	r.Data = data
	return r
}

// ReadReq builds a read request with a fresh buffer.
func ReadReq(path string, off int64, n int) *core.Request {
	r := core.NewRequest(core.OpRead)
	r.Path = path
	r.Offset = off
	r.Size = n
	r.Data = make([]byte, n)
	return r
}

// BlockWriteReq builds a block write request.
func BlockWriteReq(off int64, data []byte) *core.Request {
	r := core.NewRequest(core.OpBlockWrite)
	r.Offset = off
	r.Size = len(data)
	r.Data = data
	return r
}

// BlockReadReq builds a block read request.
func BlockReadReq(off int64, n int) *core.Request {
	r := core.NewRequest(core.OpBlockRead)
	r.Offset = off
	r.Size = n
	r.Data = make([]byte, n)
	return r
}
