package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"labstor/internal/core"
)

// spec is one workload's fixed parameters. Everything that varies between
// runs of one workload comes from the seed.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Transport is how load reaches the system: "inproc" (labstor facade),
	// "tcp" (serve.Server) or "routed" (serve.Router over two shards).
	Transport string `json:"transport"`
	ExecMode  string `json:"exec_mode"`
	Clients   int    `json:"clients"`
	Window    int    `json:"window"` // calls in flight per client
	Batch     int    `json:"runtime_batch"`
	Shards    int    `json:"shards"`
	Mounts    int    `json:"mounts"`
	DeviceMB  int    `json:"device_mb"` // per mount
	CacheMB   int    `json:"cache_mb"`  // per mount
	LogMB     int    `json:"log_mb"`

	// KV workloads: Keys per mount, each ValueSize bytes.
	Keys      int `json:"keys,omitempty"`
	ValueSize int `json:"value_size,omitempty"`
	PutPct    int `json:"put_pct,omitempty"`

	// File workload: Files of FileSize bytes, moved in Chunk-byte calls; a
	// side log takes AppendSize appends and is recreated at FileSize.
	Files      int `json:"files,omitempty"`
	FileSize   int `json:"file_size,omitempty"`
	Chunk      int `json:"chunk,omitempty"`
	AppendSize int `json:"append_size,omitempty"`

	// TraceOps is how many calls the traced run replays at each entry point.
	TraceOps int `json:"trace_ops"`
}

// workloads are the four fixed workloads, in run order.
var workloads = []spec{
	{
		Name:      "kv_hot",
		Why:       "in-process, cache always hits: ring hand-off, worker wake, Wait and the Exec walk dominate (runtime/ipc/core)",
		Transport: "inproc", ExecMode: "async", Clients: 1, Window: 1, Batch: 1,
		Shards: 1, Mounts: 1, DeviceMB: 1024, CacheMB: 64, LogMB: 8,
		Keys: 4096, ValueSize: 4096, PutPct: 20, TraceOps: 200000,
	},
	{
		Name:      "fs_sync",
		Why:       "sync exec bypasses ring and workers, files are 8x the cache: labfs log and allocator, lru fill/evict and the device dominate (mods/device)",
		Transport: "inproc", ExecMode: "sync", Clients: 1, Window: 1, Batch: 1,
		Shards: 1, Mounts: 1, DeviceMB: 1024, CacheMB: 16, LogMB: 8,
		Files: 2048, FileSize: 64 << 10, Chunk: 16 << 10, AppendSize: 4096, TraceOps: 200000,
	},
	{
		Name:      "kv_pipe",
		Why:       "TCP pipelines of 16 on a hot cache: wire codec, per-connection goroutines, flush and SubmitBatch coalescing dominate (serve throughput)",
		Transport: "tcp", ExecMode: "async", Clients: 2, Window: 16, Batch: 16,
		Shards: 1, Mounts: 1, DeviceMB: 1024, CacheMB: 64, LogMB: 8,
		Keys: 4096, ValueSize: 4096, PutPct: 20, TraceOps: 40000,
	},
	{
		Name:      "kv_routed",
		Why:       "one TCP request per flush through the router to two shards: per-request and wake-up costs, router mux and re-encode; batching gains predict no change",
		Transport: "routed", ExecMode: "async", Clients: 2, Window: 1, Batch: 16,
		Shards: 2, Mounts: 8, DeviceMB: 32, CacheMB: 8, LogMB: 4,
		Keys: 512, ValueSize: 4096, PutPct: 20, TraceOps: 40000,
	},
}

func findWorkload(name string) (*spec, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *spec) isFile() bool { return w.Files > 0 }

// units is how many independently stamped units the workload holds: KV keys
// across all mounts, or file chunks plus one for the side log.
func (w *spec) units() int {
	if w.isFile() {
		return w.Files*(w.FileSize/w.Chunk) + 1
	}
	return w.Mounts * w.Keys
}

// unitSize is the byte size of one stamped unit.
func (w *spec) unitSize() int {
	if w.isFile() {
		return w.Chunk
	}
	return w.ValueSize
}

// --- calls -----------------------------------------------------------------

// opClass groups calls for the read_*/write_* latency metrics.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
	classMeta
	nClasses
)

func classOf(op core.Op) opClass {
	switch {
	case op == core.OpGet || op == core.OpRead:
		return classRead
	case op.IsWrite():
		return classWrite
	}
	return classMeta
}

// call is one call into the public client API — the benchmark's "op".
type call struct {
	op   core.Op
	path string // KV mount, or the file's full path
	key  string // KV key
	off  int64
	buf  []byte // write payload, or the destination of a file read
	unit uint32 // stamped unit the call reads or writes
	want int64  // expected scalar result; -1 when there is none
}

// reply is what a call returned at whichever entry point issued it.
type reply struct {
	val []byte // Get value
	res int64  // scalar result (bytes moved, size)
	err error
}

// --- stamps ------------------------------------------------------------------

// model is what the system must hold: the version last written to every
// unit. Each unit has exactly one writer, so the model needs no lock.
type model struct {
	seed uint64
	ver  []uint32 // with the unknown bit set after a failed write
}

// unknown marks a unit whose last write failed: what it holds cannot be
// checked until the next write succeeds.
const unknown = 1 << 31

func newModel(seed int64, units int) *model {
	return &model{seed: uint64(seed), ver: make([]uint32, units)}
}

func (m *model) clone() *model {
	return &model{seed: m.seed, ver: append([]uint32(nil), m.ver...)}
}

func (m *model) word0(unit, ver uint32) uint64 {
	x := m.seed ^ uint64(unit)<<32 ^ uint64(ver)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

const stampStep = 0x9e3779b97f4a7c15

// stampNext fills buf with the bytes of unit's next version and records that
// version as current. Every 8-byte word depends on seed, unit, version and
// its own position, so a stale version, a neighbour's block or a shifted
// block all read as wrong.
func (m *model) stampNext(buf []byte, unit uint32) {
	m.ver[unit] = m.ver[unit]&^unknown + 1
	x := m.word0(unit, m.ver[unit])
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], x)
		x += stampStep
	}
}

// matches reports whether buf holds unit's current version.
func (m *model) matches(buf []byte, unit uint32) bool {
	ver := m.ver[unit]
	if ver&unknown != 0 {
		return true
	}
	x := m.word0(unit, ver)
	for i := 0; i+8 <= len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != x {
			return false
		}
		x += stampStep
	}
	return true
}

// check compares a reply with the model. ok is false for any failure; wrong
// is true when the system answered without error but with the wrong bytes
// or the wrong result, which fails the whole run.
func (m *model) check(w *spec, c *call, r reply) (ok, wrong bool) {
	if r.err != nil {
		if c.op.IsWrite() {
			m.ver[c.unit] |= unknown
		}
		return false, false
	}
	switch c.op {
	case core.OpGet:
		wrong = len(r.val) != w.ValueSize || !m.matches(r.val, c.unit)
	case core.OpRead:
		wrong = r.res != int64(len(c.buf)) || !m.matches(c.buf, c.unit)
	default:
		wrong = c.want >= 0 && r.res != c.want
	}
	return !wrong, wrong
}

// --- generators --------------------------------------------------------------

// generator yields the seeded call sequence of one client, one step at a
// time. A step's calls are issued in order; a windowed client issues them
// together.
type generator interface {
	next(calls []call) []call
}

func newRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)))
}

func newGenerator(w *spec, lay *layout, m *model, seed int64, client, clients, window int) generator {
	if w.isFile() {
		return newFileGen(w, lay, m, seed)
	}
	return newKVGen(w, lay, m, seed, client, clients, window)
}

// layout holds the names the generators draw from. Mount names of the routed
// workload depend on where the ring put them, so set-up fills them in.
type layout struct {
	mounts []string // KV mounts, or the one file-system mount
	keys   []string // KV key names, shared by all mounts
	files  []string // full file paths
	log    string   // side-log path
}

func newLayout(w *spec, mounts []string) *layout {
	lay := &layout{mounts: mounts}
	for k := 0; k < w.Keys; k++ {
		lay.keys = append(lay.keys, fmt.Sprintf("key-%06d", k))
	}
	for f := 0; f < w.Files; f++ {
		lay.files = append(lay.files, fmt.Sprintf("%s/f%05d", mounts[0], f))
	}
	if w.isFile() {
		lay.log = mounts[0] + "/side.log"
	}
	return lay
}

// kvGen draws get/put calls over the keys one client owns. Unit u is key
// u/Mounts of mount u%Mounts; client c owns the keys with (u/Mounts)%clients
// == c, so every key has one writer on every mount. A window is all gets or
// all puts on one mount, and a put window never repeats a key.
type kvGen struct {
	w       *spec
	lay     *layout
	m       *model
	rng     *rand.Rand
	client  int
	clients int
	window  int
	bufs    [][]byte
}

func newKVGen(w *spec, lay *layout, m *model, seed int64, client, clients, window int) *kvGen {
	g := &kvGen{w: w, lay: lay, m: m, rng: newRand(seed, client), client: client, clients: clients, window: window}
	for i := 0; i < window; i++ {
		g.bufs = append(g.bufs, make([]byte, w.ValueSize))
	}
	return g
}

func (g *kvGen) next(calls []call) []call {
	put := g.rng.Intn(100) < g.w.PutPct
	mount := g.rng.Intn(g.w.Mounts)
	first := len(calls)
	for len(calls)-first < g.window {
		key := g.client + g.clients*g.rng.Intn(g.w.Keys/g.clients)
		unit := uint32(key*g.w.Mounts + mount)
		c := call{path: g.lay.mounts[mount], key: g.lay.keys[key], unit: unit, want: -1}
		if put {
			if repeats(calls[first:], unit) {
				continue
			}
			c.op = core.OpPut
			c.buf = g.bufs[len(calls)-first]
			g.m.stampNext(c.buf, unit)
		} else {
			c.op = core.OpGet
		}
		calls = append(calls, c)
	}
	return calls
}

func repeats(calls []call, unit uint32) bool {
	for i := range calls {
		if calls[i].unit == unit {
			return true
		}
	}
	return false
}

// fileGen draws the file mix: 40% open+read+close, 30% open+write+close, 10%
// append+sync to the side log, 10% stat, 10% remove+create+rewrite. Files
// keep their size and the side log is recreated when it reaches a file's
// size, so the run is stationary.
type fileGen struct {
	w       *spec
	lay     *layout
	m       *model
	rng     *rand.Rand
	chunks  int
	logSize int
	rbuf    []byte
	wbufs   [][]byte
	abuf    []byte
}

func newFileGen(w *spec, lay *layout, m *model, seed int64) *fileGen {
	g := &fileGen{w: w, lay: lay, m: m, rng: newRand(seed, 0), chunks: w.FileSize / w.Chunk}
	g.rbuf = make([]byte, w.Chunk)
	for i := 0; i < g.chunks; i++ {
		g.wbufs = append(g.wbufs, make([]byte, w.Chunk))
	}
	g.abuf = make([]byte, w.AppendSize)
	return g
}

func (g *fileGen) write(calls []call, file, chunk int) []call {
	unit := uint32(file*g.chunks + chunk)
	buf := g.wbufs[chunk]
	g.m.stampNext(buf, unit)
	return append(calls, call{op: core.OpWrite, path: g.lay.files[file], off: int64(chunk * g.w.Chunk),
		buf: buf, unit: unit, want: int64(len(buf))})
}

func (g *fileGen) next(calls []call) []call {
	file := g.rng.Intn(g.w.Files)
	path := g.lay.files[file]
	meta := func(op core.Op, p string, want int64) {
		calls = append(calls, call{op: op, path: p, want: want})
	}
	switch r := g.rng.Intn(100); {
	case r < 40:
		chunk := g.rng.Intn(g.chunks)
		meta(core.OpOpen, path, -1)
		calls = append(calls, call{op: core.OpRead, path: path, off: int64(chunk * g.w.Chunk),
			buf: g.rbuf, unit: uint32(file*g.chunks + chunk), want: -1})
		meta(core.OpClose, path, -1)
	case r < 70:
		meta(core.OpOpen, path, -1)
		calls = g.write(calls, file, g.rng.Intn(g.chunks))
		meta(core.OpClose, path, -1)
	case r < 80:
		if g.logSize >= g.w.FileSize {
			meta(core.OpUnlink, g.lay.log, -1)
			meta(core.OpCreate, g.lay.log, -1)
			g.logSize = 0
		}
		// The side log is never read back, so its stamp never advances.
		calls = append(calls, call{op: core.OpAppend, path: g.lay.log, buf: g.abuf,
			unit: uint32(g.w.units() - 1), want: int64(len(g.abuf))})
		meta(core.OpFsync, g.lay.log, -1)
		g.logSize += len(g.abuf)
	case r < 90:
		meta(core.OpStat, path, int64(g.w.FileSize))
	default:
		meta(core.OpUnlink, path, -1)
		meta(core.OpCreate, path, -1)
		for chunk := 0; chunk < g.chunks; chunk++ {
			calls = g.write(calls, file, chunk)
		}
	}
	return calls
}
