// Package labstor is the public API of the LabStor platform reproduction:
// a modular, extensible userspace I/O platform where single-purpose I/O
// modules (LabMods) are composed by end users into workload- and
// hardware-specific I/O stacks (LabStacks) executed by a runtime with
// polling workers, dynamic work orchestration, live module upgrades and
// crash recovery.
//
// The facade wires together the internal packages:
//
//	p, _ := labstor.NewPlatform(labstor.Config{Workers: 4})
//	p.AddDevice("nvme0", labstor.NVMe, 4<<30)
//	p.MountSpec(`
//	mount: fs::/data
//	mods:
//	  - {uuid: fs, type: labstor.labfs, attrs: {device: nvme0}}
//	  - {uuid: sched, type: labstor.noop, attrs: {device: nvme0}}
//	  - {uuid: drv, type: labstor.kernel_driver, attrs: {device: nvme0}}
//	`)
//	sess := p.Connect()
//	f, _ := sess.Create("fs::/data/hello.txt")
//	f.WriteAt([]byte("hi"), 0)
//
// (The inline flow-mapping syntax above is illustrative; the spec parser
// accepts the block form shown in the examples/ directory.)
package labstor

import (
	"bytes"
	"fmt"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	_ "labstor/internal/mods/allmods" // register the built-in LabMods
	"labstor/internal/runtime"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

// Device classes re-exported for configuration.
const (
	HDD  = device.HDD
	SSD  = device.SATASSD
	NVMe = device.NVMe
	PMEM = device.PMEM
)

// Config configures a Platform.
type Config struct {
	// Workers is the Runtime worker pool size (default 4).
	Workers int
	// Policy is the work-orchestration policy: "round_robin" (default) or
	// "dynamic".
	Policy string
	// QueueDepth is the per-client queue-pair depth (default 1024).
	QueueDepth int
	// Batch is the worker drain width: up to Batch requests are taken from
	// a queue per scan with one vectored ring reservation (default 1;
	// clamped to QueueDepth).
	Batch int
	// RebalanceEvery enables the periodic orchestrator rebalance loop.
	RebalanceEvery time.Duration
	// PerfSampleEvery is the telemetry sampling period: one request in N
	// gets a full per-stage trace (0 = runtime default of 64; a negative
	// value, e.g. runtime.PerfSamplingDisabled, disables sampling).
	PerfSampleEvery int
}

// Platform is a running LabStor instance: runtime + namespace + devices.
type Platform struct {
	rt *runtime.Runtime
}

// NewPlatform creates and starts a platform.
func NewPlatform(cfg Config) *Platform {
	rt := runtime.New(runtime.Options{
		MaxWorkers:      cfg.Workers,
		Policy:          cfg.Policy,
		QueueDepth:      cfg.QueueDepth,
		Batch:           cfg.Batch,
		RebalanceEvery:  cfg.RebalanceEvery,
		PerfSampleEvery: cfg.PerfSampleEvery,
	})
	rt.Start()
	return &Platform{rt: rt}
}

// Close shuts the platform down.
func (p *Platform) Close() { p.rt.Shutdown() }

// Runtime exposes the underlying runtime for advanced use (upgrades,
// orchestrator control, crash injection in tests).
func (p *Platform) Runtime() *runtime.Runtime { return p.rt }

// Snapshot collects the platform's full telemetry tree: per-worker,
// per-queue and per-stage breakdowns, the metric registry and recent
// request traces.
func (p *Platform) Snapshot() *runtime.Snapshot { return p.rt.Snapshot() }

// AddDevice attaches a simulated storage device.
func (p *Platform) AddDevice(name string, class device.Class, capacity int64) *device.Device {
	d := device.New(name, class, capacity)
	p.rt.AddDevice(d)
	return d
}

// MountSpec parses a LabStack spec document and mounts the stack.
func (p *Platform) MountSpec(spec string) (*core.Stack, error) { return p.rt.MountSpec(spec) }

// Unmount removes a mounted stack.
func (p *Platform) Unmount(mount string) error { return p.rt.Unmount(mount) }

// Mounts lists the mounted stack paths.
func (p *Platform) Mounts() []string { return p.rt.Namespace.Mounts() }

// Session is an application connection to the platform (a client library
// instance bound to process credentials).
type Session struct {
	cli *runtime.Client
}

// Connect opens a session with default credentials.
func (p *Platform) Connect() *Session { return p.ConnectAs(1000, 1000) }

// ConnectAs opens a session with explicit uid/gid.
func (p *Platform) ConnectAs(uid, gid int) *Session {
	cli := p.rt.Connect(ipc.Credentials{PID: 1000 + uid, UID: uid, GID: gid})
	return &Session{cli: cli}
}

// Close disconnects the session.
func (s *Session) Close() { s.cli.Disconnect() }

// Clock returns the session's modeled virtual time.
func (s *Session) Clock() vtime.Time { return s.cli.Clock() }

// Client exposes the underlying runtime client.
func (s *Session) Client() *runtime.Client { return s.cli }

// copyValueOut counts the facade's copies of results it shares with a cache.
var copyValueOut = telemetry.CopySite("labstor.value_copy_out")

// reply is what a facade call keeps of a request once the request itself
// has gone back to the pool.
type reply struct {
	Result int64
	Value  []byte
	Names  []string
}

func (s *Session) do(path string, op core.Op, build func(*core.Request)) (reply, error) {
	stack, rem, ok := s.cli.Resolve(path)
	if !ok {
		return reply{}, fmt.Errorf("labstor: no stack serving %q", path)
	}
	req := core.NewRequest(op)
	req.Path = rem
	if build != nil {
		build(req)
	}
	err := s.cli.SubmitStack(stack, req)
	if !req.Done() {
		// Stopped or timed out with the request possibly still queued: a
		// worker may yet touch it, so it is left to the GC, not recycled.
		return reply{}, err
	}
	out := reply{Result: req.Result, Value: req.Value, Names: req.Names}
	// The caller keeps the result bytes for good and may write them. A
	// handle the request holds alone is taken and dropped, so its bytes
	// never re-enter an arena. A handle shared with a cache (a page view)
	// is copied out once and released: the cache still serves those bytes.
	// A Value without a handle (a mod's own slice) is the caller's as it
	// is: Release never recycles it.
	if h := req.TakeValue(); h.Valid() && !h.Sole() {
		// Clone does not zero the bytes it is about to overwrite.
		out.Value = bytes.Clone(h.Bytes())
		copyValueOut.Add(len(out.Value))
		h.Release()
	}
	req.Release()
	return out, err
}

// --- POSIX-style file API ------------------------------------------------------

// File is an open file handle on a LabStack filesystem.
type File struct {
	s    *Session
	path string
	fd   int
}

// Create creates (or truncates) a file and returns a handle.
func (s *Session) Create(path string) (*File, error) {
	req, err := s.do(path, core.OpCreate, func(r *core.Request) {
		r.Mode = 0644
		r.Flags = core.FlagCreate
	})
	if err != nil {
		return nil, err
	}
	return &File{s: s, path: path, fd: int(req.Result)}, nil
}

// Open opens an existing file.
func (s *Session) Open(path string) (*File, error) {
	req, err := s.do(path, core.OpOpen, nil)
	if err != nil {
		return nil, err
	}
	return &File{s: s, path: path, fd: int(req.Result)}, nil
}

// Path returns the file's full path.
func (f *File) Path() string { return f.path }

// WriteAt writes p at offset off.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	req, err := f.s.do(f.path, core.OpWrite, func(r *core.Request) {
		r.Offset = off
		r.Size = len(p)
		r.Data = p
		r.Flags = core.FlagCreate
	})
	if err != nil {
		return 0, err
	}
	return int(req.Result), nil
}

// ReadAt fills p from offset off.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	req, err := f.s.do(f.path, core.OpRead, func(r *core.Request) {
		r.Offset = off
		r.Size = len(p)
		r.Data = p
	})
	if err != nil {
		return 0, err
	}
	return int(req.Result), nil
}

// Append writes p at end-of-file.
func (f *File) Append(p []byte) (int, error) {
	req, err := f.s.do(f.path, core.OpAppend, func(r *core.Request) {
		r.Size = len(p)
		r.Data = p
	})
	if err != nil {
		return 0, err
	}
	return int(req.Result), nil
}

// Sync makes the file durable (metadata log flush + device flush).
func (f *File) Sync() error {
	_, err := f.s.do(f.path, core.OpFsync, nil)
	return err
}

// Size returns the file size.
func (f *File) Size() (int64, error) {
	req, err := f.s.do(f.path, core.OpStat, nil)
	if err != nil {
		return 0, err
	}
	return req.Result, nil
}

// Close closes the handle.
func (f *File) Close() error {
	_, err := f.s.do(f.path, core.OpClose, func(r *core.Request) { r.FD = f.fd })
	return err
}

// --- path-level operations ------------------------------------------------------

// Mkdir creates a directory.
func (s *Session) Mkdir(path string) error {
	_, err := s.do(path, core.OpMkdir, func(r *core.Request) { r.Mode = 0755 })
	return err
}

// Remove unlinks a file.
func (s *Session) Remove(path string) error {
	_, err := s.do(path, core.OpUnlink, nil)
	return err
}

// Rename moves a file within one stack. Both paths must resolve to the
// same mount.
func (s *Session) Rename(from, to string) error {
	stack, _, ok := s.cli.Resolve(from)
	if !ok {
		return fmt.Errorf("labstor: no stack serving %q", from)
	}
	stack2, remTo, ok := s.cli.Resolve(to)
	if !ok || stack2 != stack {
		return fmt.Errorf("labstor: rename across stacks (%q -> %q)", from, to)
	}
	_, err := s.do(from, core.OpRename, func(r *core.Request) { r.Path2 = remTo })
	return err
}

// ReadDir lists the children of a directory.
func (s *Session) ReadDir(path string) ([]string, error) {
	req, err := s.do(path, core.OpReaddir, nil)
	if err != nil {
		return nil, err
	}
	return req.Names, nil
}

// Stat returns a file's size.
func (s *Session) Stat(path string) (int64, error) {
	req, err := s.do(path, core.OpStat, nil)
	if err != nil {
		return 0, err
	}
	return req.Result, nil
}

// --- key-value API ---------------------------------------------------------------

// KV is a handle onto a LabKVS stack.
type KV struct {
	s     *Session
	mount string
}

// KV returns a key-value handle for the stack mounted at mount.
func (s *Session) KV(mount string) *KV { return &KV{s: s, mount: mount} }

// Put stores value under key in a single operation.
func (k *KV) Put(key string, value []byte) error {
	_, err := k.s.do(k.mount, core.OpPut, func(r *core.Request) {
		r.Key = key
		r.Size = len(value)
		r.Data = value
	})
	return err
}

// Get retrieves the value stored under key. The returned slice is the
// caller's own to keep and write.
func (k *KV) Get(key string) ([]byte, error) {
	req, err := k.s.do(k.mount, core.OpGet, func(r *core.Request) { r.Key = key })
	if err != nil {
		return nil, err
	}
	return req.Value, nil
}

// Del removes key.
func (k *KV) Del(key string) error {
	_, err := k.s.do(k.mount, core.OpDel, func(r *core.Request) { r.Key = key })
	return err
}

// Has reports whether key exists.
func (k *KV) Has(key string) (bool, error) {
	req, err := k.s.do(k.mount, core.OpHas, func(r *core.Request) { r.Key = key })
	if err != nil {
		return false, err
	}
	return req.Result == 1, nil
}

// Keys lists keys with the given prefix.
func (k *KV) Keys(prefix string) ([]string, error) {
	req, err := k.s.do(k.mount, core.OpReaddir, func(r *core.Request) { r.Path = prefix })
	if err != nil {
		return nil, err
	}
	return req.Names, nil
}
