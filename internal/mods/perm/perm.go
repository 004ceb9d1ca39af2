// Package perm implements the permissions-checking LabMod. Access control
// in LabStor is tunable: a stack that includes this module enforces
// owner/group/mode checks on every request (the paper's Lab-All /
// "Centralized+Permissions" configurations); removing the vertex removes
// the check and its ~3% cost (Lab-Min). Multiple stacks over the same
// content with different Permission LabMods implement the paper's "islands
// of data" tunable access control.
package perm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"labstor/internal/core"
)

// Type is the registered module type name.
const Type = "labstor.perm"

func init() {
	core.RegisterType(Type, func() core.Module { return &Checker{} })
}

// ErrPermission is wrapped into denied requests.
var ErrPermission = fmt.Errorf("perm: permission denied")

// aclEntry is a per-path-prefix access rule.
type aclEntry struct {
	prefix string
	uid    int
	gid    int
	mode   uint32 // unix-style 9-bit rwxrwxrwx
}

// Checker is the permissions module instance.
type Checker struct {
	core.Base

	mu      sync.RWMutex
	defUID  int
	defGID  int
	defMode uint32
	acl     []aclEntry

	checked int64
	denied  int64
}

// Info describes the module.
func (p *Checker) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: Type, Version: "1.0", Consumes: core.APIAny, Produces: core.APIAny}
}

// Configure reads default ownership and mode:
// attrs: owner, group, mode (octal), acl ("prefix:uid:gid:mode;...").
func (p *Checker) Configure(cfg core.Config, env *core.Env) error {
	if err := p.Base.Configure(cfg, env); err != nil {
		return err
	}
	var err error
	if p.defUID, err = cfg.Int("owner", 0); err != nil {
		return err
	}
	if p.defGID, err = cfg.Int("group", 0); err != nil {
		return err
	}
	mode, err := strconv.ParseUint(cfg.Attr("mode", "0644"), 8, 32)
	if err != nil {
		return fmt.Errorf("perm: bad mode attribute: %v", err)
	}
	p.defMode = uint32(mode)
	if raw := cfg.Attr("acl", ""); raw != "" {
		for _, rule := range strings.Split(raw, ";") {
			parts := strings.Split(rule, ":")
			if len(parts) != 4 {
				return fmt.Errorf("perm: bad acl rule %q", rule)
			}
			uid, _ := strconv.Atoi(parts[1])
			gid, _ := strconv.Atoi(parts[2])
			m, err := strconv.ParseUint(parts[3], 8, 32)
			if err != nil {
				return fmt.Errorf("perm: bad acl mode in %q", rule)
			}
			p.acl = append(p.acl, aclEntry{prefix: parts[0], uid: uid, gid: gid, mode: uint32(m)})
		}
	}
	return nil
}

// Process performs the check and forwards on success.
func (p *Checker) Process(e *core.Exec, req *core.Request) error {
	req.Charge("perm", e.Model.PermCheck)
	p.mu.RLock()
	uid, gid, mode := p.defUID, p.defGID, p.defMode
	for _, a := range p.acl {
		if strings.HasPrefix(req.Path, a.prefix) {
			uid, gid, mode = a.uid, a.gid, a.mode
		}
	}
	p.mu.RUnlock()

	want := uint32(4) // read
	if req.Op.IsWrite() || req.Op == core.OpCreate || req.Op == core.OpUnlink ||
		req.Op == core.OpRename || req.Op == core.OpMkdir || req.Op == core.OpRmdir ||
		req.Op == core.OpTruncate || req.Op == core.OpDel {
		want = 2 // write
	}
	var granted uint32
	switch {
	case req.Cred.UID == 0 || req.Cred.UID == uid:
		granted = (mode >> 6) & 7
	case req.Cred.GID == gid:
		granted = (mode >> 3) & 7
	default:
		granted = mode & 7
	}
	p.mu.Lock()
	p.checked++
	if granted&want == 0 {
		p.denied++
		p.mu.Unlock()
		req.Err = fmt.Errorf("%w: uid=%d op=%s path=%q", ErrPermission, req.Cred.UID, req.Op, req.Path)
		return req.Err
	}
	p.mu.Unlock()
	return e.Next(req)
}

// Stats returns check/deny counters.
func (p *Checker) Stats() (checked, denied int64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.checked, p.denied
}

// StateUpdate carries counters and ACL across a live upgrade.
func (p *Checker) StateUpdate(prev core.Module) error {
	old, ok := prev.(*Checker)
	if !ok {
		return nil
	}
	old.mu.RLock()
	defer old.mu.RUnlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checked, p.denied = old.checked, old.denied
	if len(p.acl) == 0 {
		p.acl = append(p.acl, old.acl...)
	}
	return nil
}
