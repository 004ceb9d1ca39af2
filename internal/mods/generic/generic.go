// Package generic implements the Generic LabMods (paper §III-A,
// "Management LabMods"): interface multiplexers loaded into clients that
// create I/O requests and forward them to the I/O system implementing the
// calls, managing the state that is common among I/O systems of a type —
// the role the VFS plays in the kernel.
//
//   - GenericFS manages the allocation of file descriptors and the routing
//     of POSIX requests to the proper filesystem implementation;
//   - GenericKVS routes key-value requests (no fd state needed).
//
// In the paper these are LD_PRELOADed into legacy applications; here they
// are the entry vertices of stacks, reached through the client library.
package generic

import (
	"fmt"
	"sync"

	"labstor/internal/core"
)

// Type names registered with the core module factory.
const (
	FSType  = "labstor.genericfs"
	KVSType = "labstor.generickvs"
)

func init() {
	core.RegisterType(FSType, func() core.Module { return &GenericFS{} })
	core.RegisterType(KVSType, func() core.Module { return &GenericKVS{} })
}

// openFile is the per-fd state GenericFS manages.
type openFile struct {
	fd     int
	path   string
	flags  int
	cursor int64
	owner  core.Cred
}

// GenericFS is the POSIX interface multiplexer.
type GenericFS struct {
	core.Base

	mu     sync.Mutex
	nextFD int
	fds    map[int]*openFile
}

// Info describes the module.
func (g *GenericFS) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: FSType, Version: "1.0", Consumes: core.APIPosix, Produces: core.APIPosix}
}

// Configure initializes the fd table.
func (g *GenericFS) Configure(cfg core.Config, env *core.Env) error {
	if err := g.Base.Configure(cfg, env); err != nil {
		return err
	}
	g.fds = make(map[int]*openFile)
	g.nextFD = 3 // 0..2 reserved, as in POSIX
	return nil
}

// Process translates fd-based requests into path-based requests and routes
// them downstream.
func (g *GenericFS) Process(e *core.Exec, req *core.Request) error {
	req.Charge("genericfs", e.Model.ModLookup)
	switch req.Op {
	case core.OpOpen, core.OpCreate:
		if err := e.Next(req); err != nil {
			return err
		}
		if req.Err != nil {
			return req.Err
		}
		g.mu.Lock()
		fd := g.nextFD
		g.nextFD++
		g.fds[fd] = &openFile{fd: fd, path: req.Path, flags: req.Flags, owner: req.Cred}
		g.mu.Unlock()
		req.FD = fd
		req.Result = int64(fd)
		return nil
	case core.OpClose:
		f, err := g.file(req)
		if err != nil {
			req.Err = err
			return err
		}
		req.Path = f.path
		if err := e.Next(req); err != nil {
			return err
		}
		g.mu.Lock()
		delete(g.fds, f.fd)
		g.mu.Unlock()
		return nil
	case core.OpRead, core.OpWrite, core.OpAppend, core.OpFsync, core.OpTruncate:
		if req.Path == "" {
			f, err := g.file(req)
			if err != nil {
				req.Err = err
				return err
			}
			req.Path = f.path
			if req.Flags == 0 {
				req.Flags = f.flags
			}
			if req.Offset < 0 { // cursor-relative I/O
				req.Offset = f.cursor
			}
			if err := e.Next(req); err != nil {
				return err
			}
			if req.Err == nil && (req.Op == core.OpRead || req.Op == core.OpWrite) {
				g.mu.Lock()
				f.cursor = req.Offset + req.Result
				g.mu.Unlock()
			}
			return nil
		}
		return e.Next(req)
	default:
		// Path-based metadata ops pass straight through.
		return e.Next(req)
	}
}

func (g *GenericFS) file(req *core.Request) (*openFile, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f, ok := g.fds[req.FD]
	if !ok {
		return nil, fmt.Errorf("genericfs: bad file descriptor %d", req.FD)
	}
	return f, nil
}

// OpenFDs returns the number of live descriptors.
func (g *GenericFS) OpenFDs() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.fds)
}

// CopyFDsTo duplicates the fd table into another instance — the fork/clone
// support path: on clone, open descriptors are copied to the new address
// space's GenericFS (paper §III-F).
func (g *GenericFS) CopyFDsTo(dst *GenericFS) {
	g.mu.Lock()
	defer g.mu.Unlock()
	dst.mu.Lock()
	defer dst.mu.Unlock()
	for fd, f := range g.fds {
		cp := *f
		dst.fds[fd] = &cp
		if fd >= dst.nextFD {
			dst.nextFD = fd + 1
		}
	}
}

// StateUpdate carries the fd table across a live upgrade (open files stay
// open).
func (g *GenericFS) StateUpdate(prev core.Module) error {
	if old, ok := prev.(*GenericFS); ok {
		old.mu.Lock()
		defer old.mu.Unlock()
		g.mu.Lock()
		defer g.mu.Unlock()
		g.fds = old.fds
		g.nextFD = old.nextFD
	}
	return nil
}

// GenericKVS is the key-value interface multiplexer.
type GenericKVS struct {
	core.Base
}

// Info describes the module.
func (g *GenericKVS) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: KVSType, Version: "1.0", Consumes: core.APIKV, Produces: core.APIKV}
}

// Process validates and routes key-value requests.
func (g *GenericKVS) Process(e *core.Exec, req *core.Request) error {
	req.Charge("generickvs", e.Model.ModLookup)
	switch req.Op {
	case core.OpPut, core.OpGet, core.OpDel, core.OpHas:
		if req.Key == "" {
			req.Err = fmt.Errorf("generickvs: empty key for %s", req.Op)
			return req.Err
		}
	}
	return e.Next(req)
}
