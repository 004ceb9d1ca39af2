package main

import (
	"errors"
	"fmt"
	"strings"

	"labstor"
	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/lru"
	"labstor/internal/serve"
)

// shard is one runtime with, on the TCP transports, its serving front end.
type shard struct {
	plat *labstor.Platform
	sess *labstor.Session // preload, and the in-process entry points of the traced run
	srv  *serve.Server
	addr string
}

// mount is one mounted stack and the handles its counts are read from.
type mount struct {
	shard int
	stack *core.Stack
	dev   *device.Device
	cache *lru.Cache
}

// system is one workload's system under test, loaded and ready for its
// clients' first call.
type system struct {
	w      *spec
	lay    *layout
	m      *model
	shards []*shard
	mounts map[string]*mount
	router *serve.Router
	front  string             // address the clients dial
	sess   []*labstor.Session // one per in-process client
	conns  []*serve.Conn      // one per TCP client
}

func stackSpec(w *spec, path, tag, dev string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mount: %s\nrules:\n  exec_mode: %s\nmods:\n", path, w.ExecMode)
	vertex := func(kind, typ string, attrs ...string) {
		fmt.Fprintf(&b, "  - uuid: %s-%s\n    type: %s\n", kind, tag, typ)
		if len(attrs) > 0 {
			b.WriteString("    attrs:\n")
		}
		for i := 0; i+1 < len(attrs); i += 2 {
			fmt.Fprintf(&b, "      %s: %s\n", attrs[i], attrs[i+1])
		}
	}
	logMB := fmt.Sprint(w.LogMB)
	if w.isFile() {
		vertex("perm", "labstor.perm", "mode", `"0666"`)
		vertex("fs", "labstor.labfs", "device", dev, "log_mb", logMB)
	} else {
		vertex("kvs", "labstor.labkvs", "device", dev, "log_mb", logMB)
	}
	vertex("cache", "labstor.lru", "capacity_mb", fmt.Sprint(w.CacheMB))
	vertex("sched", "labstor.noop", "device", dev)
	vertex("drv", "labstor.kernel_driver", "device", dev)
	return b.String()
}

// buildSystem brings the workload's system up: runtimes, devices, servers
// and router, then the mounts, the preloaded data and the client
// connections. On error everything already started is stopped.
func buildSystem(w *spec, seed int64) (sys *system, err error) {
	sys = &system{w: w, mounts: map[string]*mount{}}
	defer func() {
		if err != nil {
			sys.close()
			sys = nil
		}
	}()

	var addrs []string
	for i := 0; i < w.Shards; i++ {
		sh := &shard{plat: labstor.NewPlatform(labstor.Config{Workers: 1, Batch: w.Batch})}
		sys.shards = append(sys.shards, sh)
		sh.sess = sh.plat.Connect()
		if w.Transport == "inproc" {
			continue
		}
		sh.srv = serve.New(sh.plat.Runtime(), serve.Config{Addr: "127.0.0.1:0"})
		addr, err := sh.srv.ListenAndServe()
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		sh.addr = addr.String()
		addrs = append(addrs, sh.addr)
		sys.front = sh.addr
	}
	if w.Transport == "routed" {
		sys.router = serve.NewRouter(addrs, 512, nil)
		addr, err := sys.router.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("router listen: %w", err)
		}
		sys.front = addr.String()
	}

	paths, err := sys.placeMounts(addrs)
	if err != nil {
		return nil, err
	}
	sys.lay = newLayout(w, paths)
	sys.m = newModel(seed, w.units())
	if err := sys.preload(); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}

	for c := 0; c < w.Clients; c++ {
		if w.Transport == "inproc" {
			sys.sess = append(sys.sess, sys.shards[0].plat.Connect())
			continue
		}
		conn, err := serve.Dial(sys.front, "bench")
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		sys.conns = append(sys.conns, conn)
	}
	return sys, nil
}

// placeMounts names and mounts the stacks. The router hashes a mount's name
// onto the ring of shard addresses, and those hold ephemeral ports, so
// behind the router mount names are taken in order (kv::/s0, kv::/s1, ...)
// and a name is kept only while its shard still has room: every run gets
// Mounts/Shards mounts per shard whatever the ports are.
func (sys *system) placeMounts(addrs []string) ([]string, error) {
	w := sys.w
	var paths []string
	perShard := make([]int, w.Shards)
	for i := 0; len(paths) < w.Mounts; i++ {
		if i > 100*w.Mounts {
			return nil, errors.New("ring never filled every shard")
		}
		path, shardIdx := "kv::/hot", 0
		if w.isFile() {
			path = "fs::/b"
		}
		if sys.router != nil {
			path = fmt.Sprintf("kv::/s%d", i)
			owner := sys.router.Ring().Lookup(serve.RouteKey(path))
			for shardIdx = range addrs {
				if addrs[shardIdx] == owner {
					break
				}
			}
			if perShard[shardIdx] == w.Mounts/w.Shards {
				continue
			}
		}
		perShard[shardIdx]++
		sh := sys.shards[shardIdx]
		tag := fmt.Sprint(len(paths))
		dev := sh.plat.AddDevice("nvme"+tag, labstor.NVMe, int64(w.DeviceMB)<<20)
		stack, err := sh.plat.MountSpec(stackSpec(w, path, tag, dev.Name))
		if err != nil {
			return nil, fmt.Errorf("mount %s: %w", path, err)
		}
		mod, err := sh.plat.Runtime().Registry.Get("cache-" + tag)
		if err != nil {
			return nil, err
		}
		sys.mounts[path] = &mount{shard: shardIdx, stack: stack, dev: dev, cache: mod.(*lru.Cache)}
		paths = append(paths, path)
	}
	return paths, nil
}

// preload writes version 1 of every unit through the in-process facade.
func (sys *system) preload() error {
	w, lay, m := sys.w, sys.lay, sys.m
	buf := make([]byte, w.unitSize())
	if !w.isFile() {
		for mi, path := range lay.mounts {
			kv := sys.shards[sys.mounts[path].shard].sess.KV(path)
			for k, key := range lay.keys {
				m.stampNext(buf, uint32(k*w.Mounts+mi))
				if err := kv.Put(key, buf); err != nil {
					return err
				}
			}
		}
		return nil
	}
	sess := sys.shards[0].sess
	chunks := w.FileSize / w.Chunk
	for f, path := range lay.files {
		file, err := sess.Create(path)
		if err != nil {
			return err
		}
		for c := 0; c < chunks; c++ {
			m.stampNext(buf, uint32(f*chunks+c))
			if _, err := file.WriteAt(buf, int64(c*w.Chunk)); err != nil {
				return err
			}
		}
	}
	_, err := sess.Create(lay.log)
	return err
}

// close stops everything buildSystem started, clients first, and returns
// once every goroutine of the system has exited.
func (sys *system) close() {
	for _, c := range sys.conns {
		c.Close()
	}
	for _, s := range sys.sess {
		s.Close()
	}
	if sys.router != nil {
		sys.router.Close()
	}
	for _, sh := range sys.shards {
		if sh.srv != nil {
			sh.srv.Close()
		}
		sh.sess.Close()
		sh.plat.Close()
	}
}

// --- the public entry points the timed workloads call -------------------------

var errBusy = errors.New("server busy")

// facade issues calls through labstor.Session, KV and File.
type facade struct {
	sess *labstor.Session
	kv   *labstor.KV
	cur  *labstor.File // last file opened or created
	log  *labstor.File // the side log
	lay  *layout
}

func newFacade(sess *labstor.Session, lay *layout) (*facade, error) {
	f := &facade{sess: sess, lay: lay, kv: sess.KV(lay.mounts[0])}
	if lay.log != "" {
		var err error
		if f.log, err = sess.Open(lay.log); err != nil {
			return nil, fmt.Errorf("open side log: %w", err)
		}
	}
	return f, nil
}

func (f *facade) file(c *call) *labstor.File {
	if c.path == f.lay.log {
		return f.log
	}
	return f.cur
}

func (f *facade) do(c *call) (r reply) {
	var n int
	switch c.op {
	case core.OpGet:
		r.val, r.err = f.kv.Get(c.key)
	case core.OpPut:
		r.err = f.kv.Put(c.key, c.buf)
	case core.OpOpen:
		f.cur, r.err = f.sess.Open(c.path)
	case core.OpCreate:
		var file *labstor.File
		file, r.err = f.sess.Create(c.path)
		if c.path == f.lay.log {
			f.log = file
		} else {
			f.cur = file
		}
	case core.OpRead:
		n, r.err = f.file(c).ReadAt(c.buf, c.off)
	case core.OpWrite:
		n, r.err = f.file(c).WriteAt(c.buf, c.off)
	case core.OpAppend:
		n, r.err = f.file(c).Append(c.buf)
	case core.OpFsync:
		r.err = f.file(c).Sync()
	case core.OpClose:
		r.err = f.file(c).Close()
	case core.OpStat:
		r.res, r.err = f.sess.Stat(c.path)
		return r
	case core.OpUnlink:
		r.err = f.sess.Remove(c.path)
	default:
		r.err = fmt.Errorf("facade: no call for %s", c.op)
	}
	r.res = int64(n)
	return r
}

// wire issues calls through a serve.Conn: one Do per call, or one Pipeline
// per window.
type wire struct {
	conn *serve.Conn
	rfs  []serve.ReqFrame
}

func frame(c *call) serve.ReqFrame {
	return serve.ReqFrame{Mount: c.path, Op: c.op, Key: c.key, Payload: c.buf}
}

func wireReply(res serve.Result, err error) reply {
	switch {
	case err != nil:
		return reply{err: err}
	case res.Busy:
		return reply{err: errBusy}
	}
	return reply{val: res.Resp.Value, res: res.Resp.Result, err: res.Err()}
}

func (t *wire) do(c *call) reply {
	rf := frame(c)
	return wireReply(t.conn.Do(&rf))
}

func (t *wire) window(calls []call, out []reply) {
	t.rfs = t.rfs[:0]
	for i := range calls {
		t.rfs = append(t.rfs, frame(&calls[i]))
	}
	results, err := t.conn.Pipeline(t.rfs)
	for i := range calls {
		if err != nil {
			out[i] = reply{err: err}
		} else {
			out[i] = wireReply(results[i], nil)
		}
	}
}
