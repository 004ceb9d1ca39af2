// Package workload implements the workload generators used by the paper's
// evaluation — FxMark-style metadata stress, Filebench personalities
// (varmail, webserver, webproxy, fileserver) and the LABIOS label-store op
// stream — plus the adapters that let one workload drive either a
// simulated kernel filesystem or a LabStor stack through the client
// library. The paper's FIO and VPIC/BD-CATS runs have no driver here:
// experiments.StorageAPI (Fig. 6) issues its FIO-style direct I/O through
// kernel.Engine, and experiments.PFS (Fig. 9(a)) runs the VPIC write and
// BD-CATS read phases as its own rank loop over pfs.Client.
package workload

import (
	"labstor/internal/core"
	"labstor/internal/ipc"
	"labstor/internal/kernel"
	"labstor/internal/runtime"
	"labstor/internal/vtime"
)

// Actor is one workload thread's handle onto a filesystem: every call
// advances the actor's virtual clock by the modeled cost of the operation.
type Actor interface {
	Create(path string) error
	Mkdir(path string) error
	Write(path string, off int64, data []byte) error
	Read(path string, off int64, buf []byte) (int, error)
	Unlink(path string) error
	Rename(from, to string) error
	Stat(path string) (int64, error)
	List(dir string) ([]string, error)
	Fsync(path string) error
	// Now returns the actor's current virtual time.
	Now() vtime.Time
}

// FS creates per-thread actors over one filesystem instance.
type FS interface {
	Name() string
	NewActor(core int) Actor
}

// --- kernel filesystem adapter -------------------------------------------------

// KernelFS adapts a simulated kernel filesystem to the workload interface.
type KernelFS struct {
	FSName string
	KFS    *kernel.KFS
}

// Name returns the filesystem name.
func (k *KernelFS) Name() string { return k.FSName }

// NewActor returns a thread handle.
func (k *KernelFS) NewActor(coreID int) Actor {
	return &kfsActor{fs: k.KFS, t: kernel.NewThread(coreID)}
}

type kfsActor struct {
	fs *kernel.KFS
	t  *kernel.Thread
}

func (a *kfsActor) Create(path string) error { return a.fs.Create(a.t, path) }
func (a *kfsActor) Mkdir(path string) error  { return a.fs.Mkdir(a.t, path) }
func (a *kfsActor) Write(path string, off int64, data []byte) error {
	return a.fs.Write(a.t, path, off, data)
}
func (a *kfsActor) Read(path string, off int64, buf []byte) (int, error) {
	return a.fs.Read(a.t, path, off, buf)
}
func (a *kfsActor) Unlink(path string) error        { return a.fs.Unlink(a.t, path) }
func (a *kfsActor) Rename(from, to string) error    { return a.fs.Rename(a.t, from, to) }
func (a *kfsActor) Stat(path string) (int64, error) { return a.fs.Stat(a.t, path) }
func (a *kfsActor) List(dir string) ([]string, error) {
	return a.fs.List(a.t, dir), nil
}
func (a *kfsActor) Fsync(path string) error { return a.fs.Fsync(a.t, path) }
func (a *kfsActor) Now() vtime.Time         { return a.t.Now() }

// --- LabStor stack adapter -------------------------------------------------------

// LabStorFS adapts a mounted LabStack (POSIX interface) to the workload
// interface. Each actor is a separate LabStor client with its own queue
// pair and virtual clock.
type LabStorFS struct {
	FSName string
	RT     *runtime.Runtime
	Mount  string
	UID    int
}

// Name returns the configured display name.
func (l *LabStorFS) Name() string { return l.FSName }

// NewActor connects a fresh client.
func (l *LabStorFS) NewActor(coreID int) Actor {
	uid := l.UID
	if uid == 0 {
		uid = 1000
	}
	cli := l.RT.Connect(ipc.Credentials{PID: 10000 + coreID, UID: uid, GID: uid})
	cli.OriginCore = coreID
	return &labActor{cli: cli, mount: l.Mount}
}

type labActor struct {
	cli   *runtime.Client
	mount string
}

func (a *labActor) do(op core.Op, build func(*core.Request)) (*core.Request, error) {
	req, err := a.cli.Call(a.mount, op, build)
	if err != nil {
		return req, err
	}
	return req, req.Err
}

func (a *labActor) Create(path string) error {
	_, err := a.do(core.OpCreate, func(r *core.Request) { r.Path = path; r.Mode = 0644 })
	return err
}

func (a *labActor) Mkdir(path string) error {
	_, err := a.do(core.OpMkdir, func(r *core.Request) { r.Path = path; r.Mode = 0755 })
	return err
}

func (a *labActor) Write(path string, off int64, data []byte) error {
	_, err := a.do(core.OpWrite, func(r *core.Request) {
		r.Path = path
		r.Flags = core.FlagCreate
		r.Offset = off
		r.Size = len(data)
		r.Data = data
	})
	return err
}

func (a *labActor) Read(path string, off int64, buf []byte) (int, error) {
	req, err := a.do(core.OpRead, func(r *core.Request) {
		r.Path = path
		r.Offset = off
		r.Size = len(buf)
		r.Data = buf
	})
	if err != nil {
		return 0, err
	}
	return int(req.Result), nil
}

func (a *labActor) Unlink(path string) error {
	_, err := a.do(core.OpUnlink, func(r *core.Request) { r.Path = path })
	return err
}

func (a *labActor) Rename(from, to string) error {
	_, err := a.do(core.OpRename, func(r *core.Request) { r.Path = from; r.Path2 = to })
	return err
}

func (a *labActor) Stat(path string) (int64, error) {
	req, err := a.do(core.OpStat, func(r *core.Request) { r.Path = path })
	if err != nil {
		return 0, err
	}
	return req.Result, nil
}

func (a *labActor) List(dir string) ([]string, error) {
	req, err := a.do(core.OpReaddir, func(r *core.Request) { r.Path = dir })
	if err != nil {
		return nil, err
	}
	return req.Names, nil
}

func (a *labActor) Fsync(path string) error {
	_, err := a.do(core.OpFsync, func(r *core.Request) { r.Path = path })
	return err
}

func (a *labActor) Now() vtime.Time { return a.cli.Clock() }
