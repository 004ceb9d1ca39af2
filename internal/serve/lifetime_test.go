package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
)

// The write-through completer holds result views, payload handles and
// admission slots until its socket write returns. These tests end
// connections at the awkward moments and check that everything held comes
// back: goroutines, and the arena buffers behind payloads and results.

// leakCheck is a reading of what a connection scenario must leave as it
// found it.
type leakCheck struct {
	t          *testing.T
	goroutines int
	anon       int64 // arena buffers acquired and not released
	doubles    int64
}

func anonOutstanding() int64 {
	st := core.BufArenaStats()
	return st.Gets - st.Releases
}

func startLeakCheck(t *testing.T) *leakCheck {
	t.Helper()
	return &leakCheck{t: t, goroutines: gort.NumGoroutine(), anon: anonOutstanding(), doubles: core.HandleDoubleReleases()}
}

// done waits for the server to finish winding the scenario's connections
// down, then compares.
func (l *leakCheck) done() {
	l.t.Helper()
	var g int
	var anon int64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		g, anon = gort.NumGoroutine(), anonOutstanding()
		if (g <= l.goroutines && anon <= l.anon) || time.Now().After(deadline) {
			break
		}
	}
	if g > l.goroutines {
		buf := make([]byte, 1<<16)
		l.t.Errorf("%d goroutines, %d before the connection:\n%s", g, l.goroutines, buf[:gort.Stack(buf, true)])
	}
	if anon > l.anon {
		l.t.Errorf("%d arena buffers outstanding, %d before the connection", anon, l.anon)
	}
	if d := core.HandleDoubleReleases(); d != l.doubles {
		l.t.Errorf("%d buffer handles released twice", d-l.doubles)
	}
}

// rawDial opens a connection and completes the handshake by hand, for
// clients that misbehave in ways Conn will not.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := nc.Write(AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: "raw"})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	ack := make([]byte, len(AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: "raw"})))
	if _, err := io.ReadFull(nc, ack); err != nil {
		t.Fatalf("ack: %v", err)
	}
	return nc
}

// blastWindow is how many gets blastGets writes at a time.
const blastWindow = 64

// blastGets writes windows of blastWindow gets for key to nc, with ids
// counting up from 1, until it has written the given number of windows or
// a write fails, then closes done.
func blastGets(nc net.Conn, key string, windows int, done chan<- struct{}) {
	defer close(done)
	var frames []byte
	for w := 0; w < windows; w++ {
		frames = frames[:0]
		for i := 1; i <= blastWindow; i++ {
			frames = AppendReq(frames, &ReqFrame{ID: uint64(w*blastWindow + i), Op: core.OpGet, Mount: "kv::/bench", Key: key})
		}
		if _, err := nc.Write(frames); err != nil {
			return
		}
	}
}

func put(t *testing.T, addr, key string, val []byte) {
	t.Helper()
	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if res, err := c.Do(&ReqFrame{Op: core.OpPut, Mount: "kv::/bench", Key: key, Payload: val}); err != nil || res.Err() != nil {
		t.Fatalf("put %s: %v / %v", key, err, res.Err())
	}
}

// newCachedRuntime starts a runtime serving a kvs -> lru -> noop ->
// kernel_driver stack at mount, so that a 4 KiB get's value is a view of
// the cache's page itself. It is shut down when the test ends.
func newCachedRuntime(t *testing.T, mount string, opts runtime.Options) *runtime.Runtime {
	t.Helper()
	rt := runtime.New(opts)
	rt.AddDevice(device.New("nvme0", device.NVMe, 64<<20))
	dev := map[string]string{"device": "nvme0"}
	if _, err := rt.Mount(core.NewStack(mount, core.Rules{}, []core.Vertex{
		{UUID: "kvs", Type: "labstor.labkvs", Attrs: map[string]string{"device": "nvme0", "log_mb": "4"}, Outputs: []string{"cache"}},
		{UUID: "cache", Type: "labstor.lru", Attrs: map[string]string{"capacity_mb": "8"}, Outputs: []string{"sched"}},
		{UUID: "sched", Type: "labstor.noop", Attrs: dev, Outputs: []string{"drv"}},
		{UUID: "drv", Type: "labstor.kernel_driver", Attrs: dev},
	})); err != nil {
		t.Fatalf("mount: %v", err)
	}
	rt.Start()
	t.Cleanup(rt.Shutdown)
	return rt
}

// closeWithin fails the test if s.Close (a Server's or a Router's) hangs.
func closeWithin(t *testing.T, s io.Closer, d time.Duration) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(d):
		buf := make([]byte, 1<<16)
		t.Fatalf("Close still running after %v:\n%s", d, buf[:gort.Stack(buf, true)])
	}
}

// frameCounters returns a function that reads how many frames the server
// has taken in and sent out since frameCounters was called, leaving out the
// frames of whatever came before, such as a test's setup.
func frameCounters(rt *runtime.Runtime) func() (in, out int64) {
	count := func() (in, out int64) {
		snap := rt.Metrics().Snapshot()
		return snap.Counters["serve.frames_in"], snap.Counters["serve.frames_out"]
	}
	in0, out0 := count()
	return func() (in, out int64) {
		in, out = count()
		return in - in0, out - out0
	}
}

func TestServeClientNeverReads(t *testing.T) {
	// The peer sends gets for a 16 KiB value as fast as it can and never
	// reads an answer. Socket buffers fill, the completer blocks in its
	// write holding a batch of result views, batches pile up behind it and
	// the reader stops reading. Close must still return, and nothing the
	// stalled batches held may be lost.
	rt, s, addr := newTestServer(t, Config{Default: TenantPolicy{Inflight: 1 << 20}})
	put(t, addr, "big", bytes.Repeat([]byte{0x5A}, 16<<10))
	counters := frameCounters(rt)
	lc := startLeakCheck(t)

	nc := rawDial(t, addr)
	blast := make(chan struct{})
	go blastGets(nc, "big", math.MaxInt, blast) // until the test closes nc, or the server does

	// Stalled: some answers were written, and neither direction has moved
	// for a while.
	lastIn, lastOut := counters()
	for still, deadline := 0, time.Now().Add(20*time.Second); still < 6; {
		if time.Now().After(deadline) {
			t.Fatalf("connection never stalled: %d frames in, %d out", lastIn, lastOut)
		}
		time.Sleep(50 * time.Millisecond)
		in, out := counters()
		if in == lastIn && out == lastOut && out > 0 {
			still++
		} else {
			still = 0
		}
		lastIn, lastOut = in, out
	}

	closeWithin(t, s, 10*time.Second)
	nc.Close()
	<-blast
	lc.done()
}

func TestServeClientNeverReadsCachedPage(t *testing.T) {
	// The 4 KiB variant of TestServeClientNeverReads: a get's value is a
	// view of the LRU's page itself, not a copy. The peer blasts gets for
	// one key and reads nothing until the completer is stuck in its writev
	// with batches of those views piled up behind it. Puts then replace
	// the key's page. Every answer encoded before them must still carry
	// the old bytes (with poisoning on, a page recycled under a pinned view
	// would put 0xDB on the wire), and once the peer has read everything,
	// nothing the stalled batches held may be left or released twice.
	defer core.SetDebugChecks(core.SetDebugChecks(true))
	rt := newCachedRuntime(t, "kv::/bench", runtime.Options{MaxWorkers: 2, QueueDepth: 1024, Batch: 8})
	s := New(rt, Config{Addr: "127.0.0.1:0", Default: TenantPolicy{Inflight: 1 << 20}})
	ln, err := s.ListenAndServe()
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer s.Close()
	addr := ln.String()
	// labkvs frees a key's old block on overwrite and hands it to the next
	// put. Two puts before the stall leave the cache one page for each of
	// the key's two blocks; the two after it rewrite both, so the second
	// replaces the page the stalled answers view, and the cache ends up
	// holding as many pages as it began with.
	oldVal, newVal := bytes.Repeat([]byte{0x01}, 4096), bytes.Repeat([]byte{0x02}, 4096)
	put(t, addr, "k", oldVal)
	put(t, addr, "k", oldVal)
	counters := frameCounters(rt)
	lc := startLeakCheck(t)

	nc := rawDial(t, addr)
	defer nc.Close()
	const windows = 64 // 16 MiB of answers, far past the socket buffers
	blast := make(chan struct{})
	go blastGets(nc, "k", windows, blast)

	lastIn, lastOut := counters()
	for still, deadline := 0, time.Now().Add(20*time.Second); still < 6; {
		if time.Now().After(deadline) {
			t.Fatalf("connection never stalled: %d frames in, %d out", lastIn, lastOut)
		}
		time.Sleep(50 * time.Millisecond)
		in, out := counters()
		if in == lastIn && out == lastOut && out > 0 {
			still++
		} else {
			still = 0
		}
		lastIn, lastOut = in, out
	}
	// frames_out counts a batch before its write, so the first lastOut
	// answers are encoded and waiting on the peer.
	if lastIn >= windows*blastWindow {
		t.Fatalf("the server read all %d gets: nothing was held back", lastIn)
	}
	put(t, addr, "k", newVal)
	put(t, addr, "k", newVal)

	fr := newFrameReader(bufio.NewReader(nc), 0)
	value := make([]byte, 4096)
	replaced := false
	for id := uint64(1); id <= windows*blastWindow; id++ {
		var resp RespFrame
		if typ, _, err := fr.next(); err != nil || typ != FrameResp {
			t.Fatalf("answer %d: frame type %d, %v", id, typ, err)
		}
		n, err := fr.head(&resp)
		if err == nil && n == len(value) {
			err = fr.bulk(value)
		}
		if err != nil || !resp.OK || resp.ID != id || n != len(value) {
			t.Fatalf("answer %d: %+v with %d value bytes, %v", id, resp, n, err)
		}
		switch {
		case int64(id) <= lastOut && !bytes.Equal(value, oldVal):
			t.Fatalf("stalled answer %d of %d starts %x, want the %x it was when the get completed", id, lastOut, value[:8], oldVal[:8])
		case bytes.Equal(value, newVal):
			replaced = true
		case replaced || !bytes.Equal(value, oldVal):
			t.Fatalf("answer %d starts %x after the put: want old %x or new %x, and no old after new", id, value[:8], oldVal[:8], newVal[:8])
		}
	}
	<-blast
	if !replaced {
		t.Error("no get after the put saw the new value")
	}
	nc.Close()
	lc.done()
}

func TestServeMidFrameDisconnect(t *testing.T) {
	// The peer sends one whole put, then a put cut off inside its payload,
	// and stops sending once the server is reading that payload into the
	// arena buffer it acquired for it.
	_, _, addr := newTestServer(t, Config{})
	g := gort.NumGoroutine()
	put(t, addr, "warm", []byte("warm"))
	// The warm connection's completer releases its payload after the answer
	// is out; once its goroutines are gone the arena count below starts
	// from rest.
	for deadline := time.Now().Add(5 * time.Second); gort.NumGoroutine() > g; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the warm put, %d before", gort.NumGoroutine(), g)
		}
	}
	lc := startLeakCheck(t)

	nc := rawDial(t, addr)
	payload := bytes.Repeat([]byte{0xC3}, 8<<10)
	whole := AppendReq(nil, &ReqFrame{ID: 1, Op: core.OpPut, Mount: "kv::/bench", Key: "whole", Payload: payload})
	torn := AppendReq(nil, &ReqFrame{ID: 2, Op: core.OpPut, Mount: "kv::/bench", Key: "torn", Payload: payload})
	if _, err := nc.Write(append(whole, torn[:len(torn)-3000]...)); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Two buffers out: the first put's, waiting in the open batch, and the
	// one the torn payload is landing in.
	for deadline := time.Now().Add(5 * time.Second); anonOutstanding()-lc.anon != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d payload buffers acquired, want 2", anonOutstanding()-lc.anon)
		}
	}
	if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The whole put is still answered; then the server hangs up.
	fr := newFrameReader(bufio.NewReader(nc), 0)
	var resp RespFrame
	if typ, _, err := fr.next(); err != nil || typ != FrameResp {
		t.Fatalf("first answer: type %d, %v", typ, err)
	}
	if n, err := fr.head(&resp); err != nil || n != 0 || fr.bulk(nil) != nil || !resp.OK || resp.ID != 1 {
		t.Fatalf("first answer: %+v, %d value bytes, %v", resp, n, err)
	}
	if typ, _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the torn frame: frame type %d, %v; want EOF", typ, err)
	}
	nc.Close()
	lc.done()

	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if res, _ := c.Do(&ReqFrame{Op: core.OpHas, Mount: "kv::/bench", Key: "torn"}); res.Resp.Result != 0 {
		t.Error("the torn put was applied")
	}
}

func TestServeCloseWithBatchesInFlight(t *testing.T) {
	// 64 pipelined windows of 16 are in flight — gets with values to pin,
	// puts with payload handles to release, BUSY answers from the reader
	// sharing the write lock with the completer's batches — when the server
	// closes.
	_, s, addr := newTestServer(t, Config{Batch: 16})
	val := bytes.Repeat([]byte{0x77}, 4096)
	put(t, addr, "k", val)
	lc := startLeakCheck(t)

	const conns, perConn = 4, 16
	var wg sync.WaitGroup
	var windows atomic.Int64
	for i := 0; i < conns; i++ {
		c, err := Dial(addr, "t1")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		for j := 0; j < perConn; j++ {
			wg.Add(1)
			go func(writes bool) {
				defer wg.Done()
				rfs := make([]ReqFrame, 16)
				for {
					for k := range rfs {
						rfs[k] = ReqFrame{Op: core.OpGet, Mount: "kv::/bench", Key: "k"}
						if writes {
							rfs[k] = ReqFrame{Op: core.OpPut, Mount: "kv::/bench", Key: fmt.Sprintf("p%d", k), Payload: val}
						}
					}
					results, err := c.Pipeline(rfs)
					if err != nil {
						return // the server closed
					}
					windows.Add(1)
					for _, r := range results {
						if !r.Busy && r.Err() == nil && !writes && !bytes.Equal(r.Resp.Value, val) {
							t.Error("get returned wrong bytes")
							return
						}
					}
				}
			}(j%4 == 0)
		}
	}
	for windows.Load() < 4*conns*perConn {
		time.Sleep(time.Millisecond)
	}
	closeWithin(t, s, 10*time.Second)
	wg.Wait()
	lc.done()
}

// TestServeConnectionLedger opens 50 connections and closes them again. A
// served connection is one runtime client with one queue pair, which the
// runtime's Snapshot lists: 50 while they are open, and none left, and no
// goroutine or arena buffer, once they are closed.
func TestServeConnectionLedger(t *testing.T) {
	const n = 50
	rt, _, addr := newTestServer(t, Config{})
	lc := startLeakCheck(t)
	queues0 := len(rt.Snapshot().Queues)
	conns := make([]*Conn, n)
	for i := range conns {
		c, err := Dial(addr, "t1")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		// The server connects its runtime client before it reads a frame,
		// so a pong means the client exists.
		if err := c.Ping(); err != nil {
			t.Fatalf("ping: %v", err)
		}
		conns[i] = c
	}
	if q := len(rt.Snapshot().Queues); q != queues0+n {
		t.Fatalf("%d connections open: %d queues, want %d", n, q, queues0+n)
	}
	for _, c := range conns {
		c.Close()
	}
	q := 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if q = len(rt.Snapshot().Queues); q == queues0 {
			break
		}
	}
	if q != queues0 {
		t.Fatalf("%d connections closed: %d queues, want %d", n, q, queues0)
	}
	lc.done()
}

// TestServeCloseDuringAccept closes the server while clients keep dialing
// and sending Hello, so that some connection is accepted while Close runs.
// That connection must be closed too: Close returns within a second, and
// every client reads the end of its connection. The window is narrow, so
// each of the rounds only may hit it.
func TestServeCloseDuringAccept(t *testing.T) {
	for round := 0; round < 10; round++ {
		_, s, addr := newTestServer(t, Config{})
		closeDuringAccept(t, s, addr)
	}
}

// TestRouterCloseDuringAccept is TestServeCloseDuringAccept against a
// router. Its clients send no request, so it dials no shard.
func TestRouterCloseDuringAccept(t *testing.T) {
	for round := 0; round < 10; round++ {
		r, addr := newTestRouter(t, "127.0.0.1:1")
		closeDuringAccept(t, r, addr)
	}
}

func closeDuringAccept(t *testing.T, s io.Closer, addr string) {
	hello := AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: "t1"})
	var mu sync.Mutex
	var conns []net.Conn
	stop := make(chan struct{})
	var dialers sync.WaitGroup
	stopDialers := sync.OnceFunc(func() {
		close(stop)
		dialers.Wait()
	})
	// Closing the clients also ends a handler Close would wait on forever.
	defer func() {
		stopDialers()
		for _, nc := range conns {
			nc.Close()
		}
	}()
	for d := 0; d < 4; d++ {
		dialers.Add(1)
		go func() {
			defer dialers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					continue // refused once the listener is closed
				}
				nc.Write(hello)
				mu.Lock()
				conns = append(conns, nc)
				mu.Unlock()
			}
		}()
	}
	for {
		mu.Lock()
		n := len(conns)
		mu.Unlock()
		if n >= 8 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	closeWithin(t, s, time.Second)
	stopDialers()
	for i, nc := range conns {
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := io.ReadAll(nc)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("client %d of %d: connection still open after Close", i, len(conns))
		}
	}
}

// gatedListener wraps accepted connections so that a test can hold the
// server inside a socket write.
type gatedListener struct {
	net.Listener
	gate *writeGate
}

// writeGate, once armed, blocks every Write until it is opened, and says
// when a writer has arrived.
type writeGate struct {
	armed   atomic.Bool
	arrived chan struct{}
	open    chan struct{}
}

type gatedConn struct {
	net.Conn
	gate *writeGate
}

func (l gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return gatedConn{Conn: c, gate: l.gate}, nil
}

func (c gatedConn) Write(p []byte) (int, error) {
	if c.gate.armed.Load() {
		select {
		case c.gate.arrived <- struct{}{}:
		default:
		}
		<-c.gate.open
	}
	return c.Conn.Write(p)
}

func TestServeResultPinnedUntilWritten(t *testing.T) {
	// DESIGN.md §13: a result view is pinned until the socket write that
	// references it returns. A get's value is a view of a cache page. While
	// the completer sits in the write — after WaitAll, before the bytes are
	// out — the key is overwritten until the cache replaces that page. With
	// poisoning on, a view released early would put 0xDB on the wire.
	defer core.SetDebugChecks(core.SetDebugChecks(true))

	rt := newCachedRuntime(t, "kv::/hot", runtime.Options{MaxWorkers: 1, QueueDepth: 256, Batch: 8})

	gate := &writeGate{arrived: make(chan struct{}, 1), open: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(rt, Config{})
	s.start(gatedListener{Listener: ln, gate: gate}, s.handleConn)
	defer s.Close()

	local := rt.Connect(ipc.Credentials{})
	defer local.Disconnect()
	overwrite := func(fill byte) {
		t.Helper()
		data := bytes.Repeat([]byte{fill}, 4096)
		if req, err := local.Call("kv::/hot", core.OpPut, func(r *core.Request) { r.Key, r.Data, r.Size = "k", data, len(data) }); err != nil || req.Err != nil {
			t.Fatalf("put: %v / %v", err, req.Err)
		}
	}
	overwrite(0x01)

	c, err := Dial(ln.Addr().String(), "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if res, err := c.Do(&ReqFrame{Op: core.OpGet, Mount: "kv::/hot", Key: "k"}); err != nil || res.Err() != nil || res.Resp.Value[0] != 0x01 {
		t.Fatalf("warm get: %v / %+v", err, res)
	}

	gate.armed.Store(true)
	got := make(chan Result, 1)
	go func() {
		res, err := c.Do(&ReqFrame{Op: core.OpGet, Mount: "kv::/hot", Key: "k"})
		if err != nil {
			t.Errorf("gated get: %v", err)
		}
		got <- res
	}()
	<-gate.arrived // the completer holds the view and is inside its write
	// labkvs frees a key's old block on overwrite and hands it to the next
	// put, so a few puts are sure to land on the block the view came from.
	for fill := byte(0x02); fill < 0x06; fill++ {
		overwrite(fill)
	}
	gate.armed.Store(false)
	close(gate.open)

	res := <-got
	if want := bytes.Repeat([]byte{0x01}, 4096); !bytes.Equal(res.Resp.Value, want) {
		t.Fatalf("value on the wire starts %x, want the %x it was when the get completed", res.Resp.Value[:8], want[:8])
	}
	if res, _ := c.Do(&ReqFrame{Op: core.OpGet, Mount: "kv::/hot", Key: "k"}); len(res.Resp.Value) == 0 || res.Resp.Value[0] != 0x05 {
		t.Fatalf("a later get does not see the overwrite: %+v", res.Resp)
	}
}

// discardConn is the write side of a connection to nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

func TestGatherBatchDoesNotAllocate(t *testing.T) {
	// A batch of 16 gets of 4 KiB, as the completer answers it.
	value := make([]byte, 4096)
	var g frameGather
	var conn io.Writer = discardConn{}
	allocs := testing.AllocsPerRun(100, func() {
		for id := uint64(1); id <= 16; id++ {
			g.resp(&RespFrame{ID: id, OK: true, Result: 4096, Value: value})
		}
		if err := g.writeTo(conn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("gather-encoding a batch of 16 allocates %v times, want 0", allocs)
	}
}

func TestPipelineWindowAllocations(t *testing.T) {
	// The peer answers every get with the same 4 KiB through a frameReader
	// and a frameGather, which allocate nothing in steady state, so the
	// process-wide count AllocsPerRun takes is the client's alone: a window
	// of 16 may allocate its 16 values and the slice of results.
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			nc, err := ln.Accept()
			if err != nil {
				return err
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			fr := newFrameReader(br, 0)
			if _, err := fr.hello(); err != nil {
				return err
			}
			if _, err := nc.Write(AppendHello(nil, &HelloFrame{Version: ProtoVersion})); err != nil {
				return err
			}
			value := make([]byte, 4096)
			var g frameGather
			var rf ReqFrame
			for {
				if _, _, err := fr.next(); err != nil {
					return nil // the client hung up
				}
				if _, err := fr.head(&rf); err != nil {
					return err
				}
				if err := fr.bulk(nil); err != nil {
					return err
				}
				g.resp(&RespFrame{ID: rf.ID, OK: true, Result: 4096, Value: value})
				if br.Buffered() == 0 {
					if err := g.writeTo(nc); err != nil {
						return err
					}
				}
			}
		}()
	}()

	c, err := Dial(ln.Addr().String(), "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	rfs := make([]ReqFrame, 16)
	allocs := testing.AllocsPerRun(200, func() {
		for i := range rfs {
			rfs[i] = ReqFrame{Op: core.OpGet, Mount: "kv::/bench", Key: "k"}
		}
		results, err := c.Pipeline(rfs)
		if err != nil || len(results[15].Resp.Value) != 4096 {
			t.Fatalf("pipeline: %v", err)
		}
	})
	c.Close()
	if err := <-served; err != nil {
		t.Fatalf("peer: %v", err)
	}
	if allocs > 17 {
		t.Fatalf("a window of 16 gets allocates %v times, want at most 16 values + 1 result slice", allocs)
	}
}

// BenchmarkServePipeline16 is a window of 16 gets of 4 KiB over loopback
// against a real server: frameReader in, the write-through completer's
// gather out, Conn.Pipeline around both.
func BenchmarkServePipeline16(b *testing.B) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 1024, Batch: 16})
	rt.AddDevice(device.New("pmem0", device.PMEM, 64<<20))
	if _, err := rt.Mount(core.NewStack("kv::/bench", core.Rules{}, []core.Vertex{
		{UUID: "kvs", Type: "labstor.labkvs", Attrs: map[string]string{"device": "pmem0", "log_mb": "8"}, Outputs: []string{"dax"}},
		{UUID: "dax", Type: "labstor.dax", Attrs: map[string]string{"device": "pmem0"}},
	})); err != nil {
		b.Fatalf("mount: %v", err)
	}
	rt.Start()
	defer rt.Shutdown()
	s := New(rt, Config{Addr: "127.0.0.1:0", Batch: 16})
	addr, err := s.ListenAndServe()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if res, err := c.Do(&ReqFrame{Op: core.OpPut, Mount: "kv::/bench", Key: "k", Payload: make([]byte, 4096)}); err != nil || res.Err() != nil {
		b.Fatalf("put: %v / %v", err, res.Err())
	}

	rfs := make([]ReqFrame, 16)
	b.SetBytes(16 * 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rfs {
			rfs[j] = ReqFrame{Op: core.OpGet, Mount: "kv::/bench", Key: "k"}
		}
		results, err := c.Pipeline(rfs)
		if err != nil || results[15].Err() != nil {
			b.Fatalf("pipeline: %v", err)
		}
	}
}
