package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/serve"
	"labstor/internal/telemetry"
)

// The traced run replays client 0's seeded sequence, single-threaded, at
// successive public entry points from the device outwards. A rung's value
// is its span time per call; a layer's self time is the difference between
// adjacent rungs. Rungs that reach the system check every reply; rungs that
// time a part in isolation (device, ring, codec, loopback) run against a
// copy of the model so the system's contents stay what the model says.

// copySites are the copy sites the benchmark's stacks can reach.
var copySites = []string{
	"device.dma_read", "device.dma_write",
	"lru.hit_copy_out", "lru.fill_copy", "lru.write_insert", "lru.flush_snapshot",
	"labkvs.put_stage_tail", "labkvs.get_gather_tail", "labkvs.log_stage",
	"labfs.read_bounce", "labfs.rmw_stage", "labfs.log_pad",
}

// perLayer lists every per-layer metric with its unit. A run prints all of
// them; one that does not apply to the workload reads 0.
var perLayer = func() [][2]string {
	list := [][2]string{
		{"device.submit_ns", "ns"},
		{"core.exec_ns", "ns"}, {"core.exec_allocs", "count"},
		{"labkvs.get_ns", "ns"}, {"labkvs.put_ns", "ns"},
		{"labfs.open_ns", "ns"}, {"labfs.read_ns", "ns"}, {"labfs.write_ns", "ns"}, {"labfs.close_ns", "ns"},
		{"labfs.fsync_ns", "ns"}, {"labfs.create_ns", "ns"}, {"labfs.unlink_ns", "ns"}, {"labfs.stat_ns", "ns"},
		{"ipc.ring_rt_ns", "ns"},
		{"runtime.submit_ns", "ns"}, {"runtime.submit_allocs", "count"},
		{"runtime.batch_ns", "ns"}, {"runtime.batch_allocs", "count"},
		{"serve.codec_ns", "ns"}, {"serve.codec_allocs", "count"}, {"serve.admit_ns", "ns"},
		{"net.loopback_ns", "ns"},
		{"serve.do_ns", "ns"}, {"serve.do_allocs", "count"},
		{"serve.pipe_ns", "ns"}, {"serve.pipe_allocs", "count"},
		{"router.do_ns", "ns"}, {"router.do_allocs", "count"},
		{"mods.self_ns", "ns"}, {"runtime.self_ns", "ns"}, {"runtime.batch_self_ns", "ns"},
		{"serve.self_ns", "ns"}, {"serve.pipe_self_ns", "ns"}, {"router.self_ns", "ns"},
		{"device.reads_per_op", "count"}, {"device.writes_per_op", "count"},
		{"device.write_amp", "ratio"}, {"device.read_amp", "ratio"},
		{"lru.hit_ratio", "ratio"},
	}
	for _, site := range copySites {
		list = append(list, [2]string{"copy." + site + "_per_op", "count"})
	}
	return append(list, [][2]string{
		{"runtime.polls_per_op", "count"}, {"runtime.empty_poll_ratio", "ratio"}, {"runtime.parks_per_kop", "count"},
		{"runtime.batch_mean", "count"}, {"runtime.sq_full_retries", "count"}, {"runtime.queue_wait_frac", "ratio"},
		{"runtime.vlat_mean_us", "us"},
		{"core.reqpool_hit_ratio", "ratio"}, {"core.bufarena_hit_ratio", "ratio"},
		{"serve.frames_in_per_op", "count"}, {"serve.bytes_in_per_op", "B"}, {"serve.bytes_out_per_op", "B"},
		{"serve.batch_mean", "count"}, {"serve.busy_per_op", "count"},
		{"router.frames_per_op", "count"}, {"router.shard_skew", "ratio"},
		{"go.gc_cycles_per_mop", "count"}, {"go.gc_pause_us_per_kop", "us"},
		{"client.lat_p99_us", "us"}, {"client.lat_p999_us", "us"}, {"client.lat_max_us", "us"},
		{"client.window_ops_per_s", "1/s"}, {"client.fail_ratio", "ratio"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// kindMetrics names the per-op-type means taken at the core.exec rung.
var kindMetrics = map[core.Op]string{
	core.OpGet: "labkvs.get_ns", core.OpPut: "labkvs.put_ns",
	core.OpOpen: "labfs.open_ns", core.OpRead: "labfs.read_ns", core.OpWrite: "labfs.write_ns",
	core.OpAppend: "labfs.write_ns", core.OpClose: "labfs.close_ns", core.OpFsync: "labfs.fsync_ns",
	core.OpCreate: "labfs.create_ns", core.OpUnlink: "labfs.unlink_ns", core.OpStat: "labfs.stat_ns",
}

type ladder struct {
	sys  *system
	seed int64
	tr   *tracer
	ms   metrics

	attempted, failed, wrong uint64
}

// rungResult is one replay: its spans' totals, allocations per call issued
// and, for the own rung, the calls issued traced or not, the bytes they asked
// for, and what tracing added to the wall time per call.
type rungResult struct {
	rungTotals
	allocs                float64
	issued                uint64
	userRead, userWritten int64
	overhead              float64 // percent
}

func (r rungResult) ns() float64 { return float64(r.rungTotals.ns) / float64(r.calls) }

// entry is one public entry point: do for single calls or window for a
// step's calls together; real when the calls reach the workload's system.
type entry struct {
	do     func(*call) reply
	window func([]call, []reply)
	width  int // calls per step for KV workloads; 0 keeps the workload's own
	real   bool
}

// traceBlock is how many calls the own rung issues traced, then untraced, in
// turn: the difference in wall time per call between the two kinds of block
// is what tracing costs.
const traceBlock = 500

// replay issues about ops calls at one entry point under a new root span
// named rung. With own set, blocks of traced and untraced calls alternate.
func (l *ladder) replay(rung string, ops int, e entry, own bool) rungResult {
	w := l.sys.w
	m := l.sys.m
	if !e.real {
		m = m.clone()
	}
	width := e.width
	if width == 0 {
		width = w.Window
	}
	r := &runner{w: w, m: m, do: e.do, window: e.window, check: e.real,
		gen: newGenerator(w, l.sys.lay, m, l.seed, 0, w.Clients, width)}
	l.tr.begin(rung)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wall [2]time.Duration // traced, untraced
	var calls [2]uint64
	for block := 0; r.attempted < uint64(ops); block++ {
		kind := 0
		r.sink = l.tr
		if own && block%2 == 1 {
			kind = 1
			r.sink = nil
		}
		start, first := time.Now(), r.attempted
		for r.attempted-first < traceBlock && r.attempted < uint64(ops) {
			r.step()
		}
		wall[kind] += time.Since(start)
		calls[kind] += r.attempted - first
	}
	runtime.ReadMemStats(&after)
	l.tr.end()
	res := rungResult{
		rungTotals: l.tr.totals(),
		allocs:     float64(after.Mallocs-before.Mallocs) / float64(r.attempted),
		issued:     r.attempted,
		userRead:   r.userRead, userWritten: r.userWritten,
	}
	if calls[1] > 0 {
		traced, plain := float64(wall[0])/float64(calls[0]), float64(wall[1])/float64(calls[1])
		res.overhead = 100 * (traced - plain) / plain
	}
	if e.real {
		l.attempted += r.attempted
		l.failed += r.failed
		l.wrong += r.wrong
	}
	return res
}

// rung replays at one entry point and reports <name>_ns and, when asked,
// <name>_allocs.
func (l *ladder) rung(name string, e entry, allocs bool) rungResult {
	res := l.replay(name, l.sys.w.TraceOps, e, false)
	l.ms.set(name+"_ns", res.ns(), "ns", res.calls)
	if allocs {
		l.ms.set(name+"_allocs", res.allocs, "count", res.issued)
	}
	return res
}

// fill sets a request's operands the way the labstor facade does.
func fill(r *core.Request, c *call) {
	switch c.op {
	case core.OpPut:
		r.Key, r.Size, r.Data = c.key, len(c.buf), c.buf
	case core.OpGet:
		r.Key = c.key
	case core.OpCreate:
		r.Mode, r.Flags = 0644, core.FlagCreate
	case core.OpWrite:
		r.Offset, r.Size, r.Data, r.Flags = c.off, len(c.buf), c.buf, core.FlagCreate
	case core.OpRead:
		r.Offset, r.Size, r.Data = c.off, len(c.buf), c.buf
	case core.OpAppend:
		r.Size, r.Data = len(c.buf), c.buf
	}
}

func requestReply(req *core.Request, err error) reply {
	if err == nil {
		err = req.Err
	}
	return reply{val: req.Value, res: req.Result, err: err}
}

// mountOf returns the mount a call lands on.
func (sys *system) mountOf(c *call) *mount {
	if sys.w.isFile() {
		return sys.mounts[sys.lay.mounts[0]]
	}
	return sys.mounts[c.path]
}

// run climbs the ladder and returns the per-layer metrics.
func (l *ladder) run() (metrics, error) {
	sys, w := l.sys, l.sys.w
	l.ms = metrics{}
	async := w.ExecMode == "async"

	dev := l.rung("device.submit", l.deviceEntry(), false)

	execs := make([]*core.Exec, len(sys.shards))
	for i, sh := range sys.shards {
		rt := sh.plat.Runtime()
		execs[i] = core.NewExec(rt.Registry, rt.Namespace, rt.Model(), -1)
	}
	exec := l.rung("core.exec", entry{real: true, do: func(c *call) reply {
		shard := sys.mountOf(c).shard
		stack, rem, ok := sys.shards[shard].plat.Runtime().Namespace.Resolve(c.path)
		if !ok {
			return reply{err: fmt.Errorf("no stack serving %q", c.path)}
		}
		req := core.NewRequest(c.op)
		req.Path = rem
		req.Cred = core.Cred{UID: 1000, GID: 1000}
		req.OriginCore = 1
		fill(req, c)
		return requestReply(req, execs[shard].Submit(stack, req))
	}}, true)
	sums := map[string]rungKind{}
	for op, k := range exec.kinds {
		s := sums[kindMetrics[op]]
		s.calls += k.calls
		s.ns += k.ns
		sums[kindMetrics[op]] = s
	}
	for name, s := range sums {
		l.ms.set(name, float64(s.ns)/float64(s.calls), "ns", s.calls)
	}
	l.ms.set("mods.self_ns", exec.ns()-dev.ns(), "ns", 0)

	if async {
		qp := ipc.NewQueuePair[*core.Request](1, ipc.Primary, true, 1024)
		one := []*core.Request{core.NewRequest(core.OpNop)}
		got := make([]*core.Request, 1)
		l.rung("ipc.ring_rt", entry{do: func(*call) reply {
			qp.SubmitBatch(one)
			qp.PollSQBatch(got)
			qp.CompleteBatch(got)
			qp.PollCQBatch(got)
			return reply{}
		}}, false)
	}

	submitEntry := entry{real: true, do: func(c *call) reply {
		cli := sys.shards[sys.mountOf(c).shard].sess.Client()
		return requestReply(cli.Call(c.path, c.op, func(r *core.Request) { fill(r, c) }))
	}}
	var submit, batch rungResult
	if w.Transport == "inproc" {
		submit = l.ownRung("runtime.submit", submitEntry)
	} else {
		submit = l.rung("runtime.submit", submitEntry, true)
	}
	l.ms.set("runtime.self_ns", submit.ns()-exec.ns(), "ns", 0)

	if async {
		reqs := make([]*core.Request, 0, 16)
		batch = l.rung("runtime.batch", entry{real: true, width: 16, window: func(calls []call, out []reply) {
			mt := sys.mountOf(&calls[0])
			cli := sys.shards[mt.shard].sess.Client()
			reqs = reqs[:0]
			for i := range calls {
				req := core.NewRequest(calls[i].op)
				fill(req, &calls[i])
				reqs = append(reqs, req)
			}
			err := cli.SubmitBatch(mt.stack, reqs)
			if err == nil {
				err = cli.WaitAll(reqs)
			}
			for i, req := range reqs {
				out[i] = requestReply(req, nil)
				if out[i].err == nil {
					out[i].err = err
				}
			}
		}}, true)
		l.ms.set("runtime.batch_self_ns", batch.ns()-exec.ns(), "ns", 0)
	}
	if w.Transport == "inproc" {
		return l.ms, nil
	}

	l.rung("serve.codec", codecEntry(w), true)
	adm := serve.NewAdmission(serve.TenantPolicy{}, nil, nil)
	tenant := adm.Tenant("bench")
	l.rung("serve.admit", entry{do: func(*call) reply {
		if ok, _, _ := adm.Admit(tenant); ok {
			adm.Done(tenant)
		}
		return reply{}
	}}, false)

	echo, err := newEcho(w.ValueSize)
	if err != nil {
		return nil, err
	}
	loop := l.rung("net.loopback", entry{do: echo.do}, false)
	echo.close()

	// Direct: every call goes straight to the shard that owns its mount.
	direct := make([]*wire, len(sys.shards))
	for i, sh := range sys.shards {
		conn := sys.conns[0]
		if sys.router != nil {
			if conn, err = serve.Dial(sh.addr, "bench"); err != nil {
				return nil, err
			}
			defer conn.Close()
		}
		direct[i] = &wire{conn: conn}
	}
	do := l.rung("serve.do", entry{real: true, do: func(c *call) reply { return direct[sys.mountOf(c).shard].do(c) }}, true)
	l.ms.set("serve.self_ns", do.ns()-submit.ns()-loop.ns(), "ns", 0)
	if sys.router != nil {
		routed := l.ownRung("router.do", entry{real: true, do: (&wire{conn: sys.conns[0]}).do})
		l.ms.set("router.self_ns", routed.ns()-do.ns(), "ns", 0)
		return l.ms, nil
	}
	pipe := l.ownRung("serve.pipe", entry{real: true, width: 16, window: direct[0].window})
	l.ms.set("serve.pipe_self_ns", pipe.ns()-batch.ns()-loop.ns()/16, "ns", 0)
	return l.ms, nil
}

// deviceEntry moves each call's bytes on a scratch device of the stacks'
// class: one 4 KiB (or chunk-sized) command at the unit's offset. Calls that
// move no data cost nothing here.
func (l *ladder) deviceEntry() entry {
	w := l.sys.w
	unit := int64(w.unitSize())
	dev := device.New("scratch", device.NVMe, int64(w.units()+1)*unit)
	buf := make([]byte, unit)
	for u := 0; u < w.units(); u++ {
		_, _ = dev.WriteAt(buf, int64(u)*unit) // materialize the sparse store; in range by construction
	}
	return entry{do: func(c *call) (r reply) {
		off := int64(c.unit) * unit
		switch classOf(c.op) {
		case classWrite:
			_, _, r.err = dev.SubmitToQueue(0, device.Write, off, c.buf, 0)
		case classRead:
			_, _, r.err = dev.SubmitToQueue(0, device.Read, off, buf, 0)
		}
		return r
	}}
}

// codecEntry encodes and decodes each call's request and response frames in
// memory.
func codecEntry(w *spec) entry {
	var enc []byte
	var rq serve.ReqFrame
	var rs serve.RespFrame
	value := make([]byte, w.ValueSize)
	id := uint64(0)
	return entry{do: func(c *call) (r reply) {
		id++
		rf := frame(c)
		rf.ID = id
		enc = serve.AppendReq(enc[:0], &rf)
		_, payload, _, err := serve.DecodeFrame(enc, 0)
		if err == nil {
			err = serve.DecodeReq(payload, &rq)
		}
		if err != nil {
			return reply{err: err}
		}
		resp := serve.RespFrame{ID: id, OK: true}
		if c.op == core.OpGet {
			resp.Value = value
		}
		enc = serve.AppendResp(enc[:0], &resp)
		if _, payload, _, err = serve.DecodeFrame(enc, 0); err == nil {
			err = serve.DecodeResp(payload, &rs)
		}
		return reply{err: err}
	}}
}

// echo is the kernel's loopback floor: a TCP peer that reads a request-sized
// message and answers with a response-sized one.
type echo struct {
	ln    net.Listener
	conn  net.Conn
	done  chan struct{}
	out   []byte
	in    []byte
	value int // bytes in a Get's response
}

const echoHeader = 8

func newEcho(value int) (*echo, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echo{ln: ln, done: make(chan struct{}), out: make([]byte, 64<<10), in: make([]byte, 64<<10), value: value}
	go func() {
		defer close(e.done)
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		in, out := make([]byte, 64<<10), make([]byte, 64<<10)
		for {
			if _, err := io.ReadFull(peer, in[:echoHeader]); err != nil {
				return
			}
			reqLen := binary.LittleEndian.Uint32(in)
			respLen := binary.LittleEndian.Uint32(in[4:])
			if _, err := io.ReadFull(peer, in[echoHeader:reqLen]); err != nil {
				return
			}
			if _, err := peer.Write(out[:respLen]); err != nil {
				return
			}
		}
	}()
	if e.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-e.done
		return nil, err
	}
	return e, nil
}

func (e *echo) do(c *call) reply {
	// Frame sizes of serve's codec: header and fixed fields, then the strings
	// and the payload or value.
	reqLen := 24 + len(c.path) + len(c.key) + len(c.buf)
	respLen := 18
	if c.op == core.OpGet {
		respLen += e.value
	}
	binary.LittleEndian.PutUint32(e.out, uint32(reqLen))
	binary.LittleEndian.PutUint32(e.out[4:], uint32(respLen))
	if _, err := e.conn.Write(e.out[:reqLen]); err != nil {
		return reply{err: err}
	}
	_, err := io.ReadFull(e.conn, e.in[:respLen])
	return reply{err: err}
}

func (e *echo) close() {
	e.conn.Close()
	e.ln.Close()
	<-e.done
}

// --- counts around the workload's own rung ---------------------------------------

// counts is a reading of every cumulative counter the per-layer counts are
// deltas of.
type counts struct {
	reads, writes, bytesRead, bytesWritten int64
	hits, misses                           int64
	copies                                 map[string]int64
	polls, emptyPolls, parks, processed    int64
	sqFull                                 int64
	framesIn, bytesIn, bytesOut, busy      int64
	serveBatches, serveBatched             float64
	requests                               int64
	latencyUS, waitUS                      float64
	clock                                  int64
	reqGets, reqHits, bufGets, bufHits     int64
	forwarded                              int64
	perBackend                             []int64
}

func (sys *system) counts() counts {
	time.Sleep(5 * time.Millisecond) // idle workers publish their attribution deltas
	c := counts{copies: map[string]int64{}}
	for _, path := range sys.lay.mounts {
		mt := sys.mounts[path]
		r, w, br, bw, _ := mt.dev.Stats()
		c.reads, c.writes, c.bytesRead, c.bytesWritten = c.reads+r, c.writes+w, c.bytesRead+br, c.bytesWritten+bw
		h, m, _ := mt.cache.Stats()
		c.hits, c.misses = c.hits+h, c.misses+m
	}
	for _, s := range telemetry.CopySiteStats() {
		c.copies[s.Site] = s.Count
	}
	for _, sh := range sys.shards {
		snap := sh.plat.Snapshot()
		for _, ws := range snap.Workers {
			c.polls, c.emptyPolls, c.parks, c.processed = c.polls+ws.Polls, c.emptyPolls+ws.EmptyPolls, c.parks+ws.Parks, c.processed+ws.Processed
		}
		ctr := snap.Metrics.Counters
		c.sqFull += ctr["client.sq_full_retries"]
		c.framesIn, c.bytesIn, c.bytesOut, c.busy = c.framesIn+ctr["serve.frames_in"], c.bytesIn+ctr["serve.bytes_in"], c.bytesOut+ctr["serve.bytes_out"], c.busy+ctr["serve.busy"]
		if h, ok := snap.Metrics.Histograms["serve.batch_size"]; ok {
			c.serveBatches += float64(h.Count)
			c.serveBatched += float64(h.Count) * h.Mean
		}
		for _, sa := range snap.Attribution {
			c.requests += sa.Requests
			c.latencyUS += sa.TotalLatencyUS
			c.waitUS += sa.TotalLatencyUS * sa.QueueWaitPct / 100
		}
		c.clock += int64(sh.sess.Clock())
	}
	rp, ba := core.RequestPoolStats(), core.BufArenaStats()
	c.reqGets, c.reqHits, c.bufGets, c.bufHits = rp.Gets, rp.Hits, ba.Gets, ba.Hits
	if sys.router != nil {
		ctr := sys.router.Metrics().Snapshot().Counters
		c.forwarded = ctr["router.frames_forwarded"]
		for _, name := range telemetry.SortedKeys(ctr) {
			if strings.HasPrefix(name, "router.backend_ops;") {
				c.perBackend = append(c.perBackend, ctr[name])
			}
		}
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ownRung replays at the entry point the workload's own clients use, with
// the layers' counters read before and after. Every other block of calls is
// issued untraced, to price the tracing; the counts are per call issued.
func (l *ladder) ownRung(name string, e entry) rungResult {
	sys, w := l.sys, l.sys.w
	b := sys.counts()
	res := l.replay(name, w.TraceOps, e, true)
	a := sys.counts()
	l.ms.set(name+"_ns", res.ns(), "ns", res.calls)
	l.ms.set(name+"_allocs", res.allocs, "count", res.issued)
	l.ms.set("trace.overhead_pct", res.overhead, "%", res.issued)

	ops := float64(res.issued)
	d := func(after, before int64) float64 { return float64(after - before) }
	ms := l.ms
	ms.set("device.reads_per_op", d(a.reads, b.reads)/ops, "count", res.issued)
	ms.set("device.writes_per_op", d(a.writes, b.writes)/ops, "count", res.issued)
	ms.set("device.write_amp", ratio(d(a.bytesWritten, b.bytesWritten), float64(res.userWritten)), "ratio", res.issued)
	ms.set("device.read_amp", ratio(d(a.bytesRead, b.bytesRead), float64(res.userRead)), "ratio", res.issued)
	hits, misses := d(a.hits, b.hits), d(a.misses, b.misses)
	ms.set("lru.hit_ratio", ratio(hits, hits+misses), "ratio", uint64(hits+misses))
	for _, site := range copySites {
		ms.set("copy."+site+"_per_op", d(a.copies[site], b.copies[site])/ops, "count", res.issued)
	}
	polls, empty := d(a.polls, b.polls), d(a.emptyPolls, b.emptyPolls)
	ms.set("runtime.polls_per_op", polls/ops, "count", res.issued)
	ms.set("runtime.empty_poll_ratio", ratio(empty, polls), "ratio", uint64(polls))
	ms.set("runtime.parks_per_kop", d(a.parks, b.parks)/ops*1e3, "count", res.issued)
	ms.set("runtime.batch_mean", ratio(d(a.processed, b.processed), polls-empty), "count", uint64(polls-empty))
	ms.set("runtime.sq_full_retries", d(a.sqFull, b.sqFull), "count", res.issued)
	if reqs := d(a.requests, b.requests); reqs > 0 {
		ms.set("runtime.queue_wait_frac", ratio(a.waitUS-b.waitUS, a.latencyUS-b.latencyUS), "ratio", uint64(reqs))
		ms.set("runtime.vlat_mean_us", (a.latencyUS-b.latencyUS)/reqs, "us", uint64(reqs))
	} else {
		// Sync execution has no worker to attribute; the client's virtual
		// clock is closed-loop, so its advance per call is the latency.
		ms.set("runtime.vlat_mean_us", d(a.clock, b.clock)/ops/1e3, "us", res.issued)
	}
	ms.set("core.reqpool_hit_ratio", ratio(d(a.reqHits, b.reqHits), d(a.reqGets, b.reqGets)), "ratio", uint64(d(a.reqGets, b.reqGets)))
	ms.set("core.bufarena_hit_ratio", ratio(d(a.bufHits, b.bufHits), d(a.bufGets, b.bufGets)), "ratio", uint64(d(a.bufGets, b.bufGets)))
	ms.set("serve.frames_in_per_op", d(a.framesIn, b.framesIn)/ops, "count", res.issued)
	ms.set("serve.bytes_in_per_op", d(a.bytesIn, b.bytesIn)/ops, "B", res.issued)
	ms.set("serve.bytes_out_per_op", d(a.bytesOut, b.bytesOut)/ops, "B", res.issued)
	ms.set("serve.batch_mean", ratio(a.serveBatched-b.serveBatched, a.serveBatches-b.serveBatches), "count", uint64(a.serveBatches-b.serveBatches))
	ms.set("serve.busy_per_op", d(a.busy, b.busy)/ops, "count", res.issued)
	ms.set("router.frames_per_op", d(a.forwarded, b.forwarded)/ops, "count", res.issued)
	var most, total float64
	for i := range a.perBackend {
		n := float64(a.perBackend[i])
		if i < len(b.perBackend) {
			n -= float64(b.perBackend[i])
		}
		total += n
		if n > most {
			most = n
		}
	}
	ms.set("router.shard_skew", ratio(most*float64(len(a.perBackend)), total), "ratio", uint64(total))

	return res
}
