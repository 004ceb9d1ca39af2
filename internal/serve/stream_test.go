package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
)

// Streamed completions over the wire: the completer writes what is done
// once a batch's first request is, then the rest, so an answer does not
// wait for the slowest request of its batch, and a batch costs at most two
// socket writes.

const serveGateType = "test.serve_gate"

// serveGate answers a request with a function of its offset. A request
// whose key is "hold" first blocks until the test sends a token on release.
type serveGate struct {
	core.Base
	entered chan struct{}
	release chan struct{}
}

func init() {
	core.RegisterType(serveGateType, func() core.Module {
		// Sized to the one held request a test has in flight.
		return &serveGate{entered: make(chan struct{}, 1), release: make(chan struct{}, 1)}
	})
}

func (g *serveGate) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: serveGateType, Version: "1.0", Consumes: core.APIAny, Produces: core.APIAny}
}

func (g *serveGate) Process(e *core.Exec, req *core.Request) error {
	if req.Key == "hold" {
		g.entered <- struct{}{}
		<-g.release
	}
	req.Result = serveGateAnswer(req.Offset)
	return nil
}

func serveGateAnswer(off int64) int64 { return off*5 + 3 }

// newGateRuntime starts a one-worker runtime whose worker drains up to 8
// requests per scan, serving the gate at msg::/gate.
func newGateRuntime(t *testing.T) (*runtime.Runtime, *core.Stack, *serveGate) {
	t.Helper()
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 256, Batch: 8, PerfSampleEvery: runtime.PerfSamplingDisabled})
	rt.AddDevice(device.New("nvme0", device.NVMe, 1<<20))
	st, err := rt.Mount(core.NewStack("msg::/gate", core.Rules{}, []core.Vertex{{UUID: "gate", Type: serveGateType}}))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Shutdown)
	m, err := rt.Registry.Get("gate")
	if err != nil {
		t.Fatal(err)
	}
	return rt, st, m.(*serveGate)
}

// recyclePool draws a few requests from the pool and puts them back:
// whatever the completer released is reset while the worker is still
// inside the batch, so a late touch of a completed request is a race.
func recyclePool() {
	var rs [8]*core.Request
	for i := range rs {
		rs[i] = core.NewRequest(core.OpMessage)
	}
	for _, r := range rs {
		r.Release()
	}
}

func TestServeStreamsCompletions(t *testing.T) {
	// A pipelined window of 8 whose last request is held at the gate: the
	// client must receive the first answer while the gate still holds the
	// last.
	rt, _, gate := newGateRuntime(t)
	s := New(rt, Config{})
	addr, err := s.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String(), "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// A failure while the gate holds a request opens it, so the runtime
	// can shut down.
	holding := false
	defer func() {
		if holding {
			gate.release <- struct{}{}
		}
	}()
	for round := 0; round < 10; round++ {
		var chans [8]chan Result
		for i := range chans {
			rf := ReqFrame{Op: core.OpMessage, Mount: "msg::/gate", Offset: int64(round*8 + i)}
			if i == 7 {
				rf.Key = "hold"
			}
			if chans[i], err = c.submit(&rf); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		<-gate.entered
		holding = true
		select {
		case res := <-chans[0]:
			if res.Err() != nil || res.Resp.Result != serveGateAnswer(int64(round*8)) {
				t.Fatalf("round %d: first answer %+v", round, res)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: no answer to the first request while the last is held", round)
		}
		recyclePool()
		gate.release <- struct{}{}
		holding = false
		for i := 1; i < 8; i++ {
			res, err := wait(chans[i])
			if err != nil || res.Err() != nil || res.Resp.Result != serveGateAnswer(int64(round*8+i)) {
				t.Fatalf("round %d: answer %d: %v / %+v", round, i, err, res)
			}
		}
	}
}

// writeLog is a connection's write side that keeps what each Write was
// handed and announces every write. A batch of answers without values is
// one run of head bytes, so each connWriter.flush is exactly one Write.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
	wrote  chan struct{}
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, bytes.Clone(p))
	w.mu.Unlock()
	select {
	case w.wrote <- struct{}{}:
	default:
	}
	return len(p), nil
}

// ids returns the request ids answered by each write, in order.
func (w *writeLog) ids(t *testing.T) [][]uint64 {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	var out [][]uint64
	for _, b := range w.writes {
		fr := newFrameReader(bufio.NewReader(bytes.NewReader(b)), 0)
		var rf RespFrame
		var ids []uint64
		for {
			id, res, err := readResult(fr, &rf)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil || !res.Resp.OK {
				t.Fatalf("write %d: %v / %+v", len(out), err, res)
			}
			ids = append(ids, id)
		}
		out = append(out, ids)
	}
	return out
}

func TestCompleterWritesBatchAtMostTwice(t *testing.T) {
	rt, st, gate := newGateRuntime(t)
	s := New(rt, Config{})
	cli := rt.Connect(ipc.Credentials{})
	defer cli.Disconnect()
	log := &writeLog{wrote: make(chan struct{}, 1)}
	cw := &connWriter{s: s, conn: log}
	compCh := make(chan *submittedBatch, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.completeLoop(cli, cw, compCh)
	}()
	submit := func(first uint64, hold int) {
		b := s.getBatch()
		for i := 0; i < 8; i++ {
			req := core.NewRequest(core.OpMessage)
			req.Offset = int64(first) + int64(i)
			if i == hold {
				req.Key = "hold"
			}
			b.reqs = append(b.reqs, req)
			b.entries = append(b.entries, pendingReq{id: first + uint64(i), ts: s.adm.Tenant("t1")})
			s.adm.Admit(b.entries[i].ts)
		}
		b.subErr = cli.SubmitBatch(st, b.reqs)
		compCh <- b
	}

	// The gate holds the last request: the first write goes out while it
	// is held, and the second carries the rest.
	submit(1, 7)
	<-gate.entered
	select {
	case <-log.wrote:
	case <-time.After(2 * time.Second):
		gate.release <- struct{}{}
		close(compCh)
		<-done
		t.Fatal("no write while the batch's last request is held")
	}
	recyclePool()
	gate.release <- struct{}{}

	// Ungated batches: still at most two writes each.
	const batches = 50
	for k := 0; k < batches; k++ {
		submit(uint64(100+8*k), -1)
	}
	close(compCh)
	<-done

	writes := log.ids(t)
	var want, got []uint64
	for i := uint64(1); i <= 8; i++ {
		want = append(want, i)
	}
	for k := 0; k < batches; k++ {
		for i := 0; i < 8; i++ {
			want = append(want, uint64(100+8*k+i))
		}
	}
	for _, ids := range writes {
		got = append(got, ids...)
	}
	if len(writes[0]) == 0 || len(writes[0]) > 7 || writes[1][len(writes[1])-1] != 8 {
		t.Fatalf("gated batch written as %v, want a write without request 8, then one ending with it", writes[:2])
	}
	// Ids 1..8 are the gated batch, 100+8k.. the k-th ungated one.
	batchOf := func(id uint64) int {
		if id <= 8 {
			return 0
		}
		return int(id-100)/8 + 1
	}
	perBatch := make([]int, 1+batches)
	for w, ids := range writes {
		b := batchOf(ids[0])
		for _, id := range ids {
			if batchOf(id) != b {
				t.Fatalf("write %d answers requests of two batches: %v", w, ids)
			}
		}
		if perBatch[b]++; perBatch[b] > 2 {
			t.Fatalf("batch %d took more than two writes", b)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("answered %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d is for request %d, want %d: answers go out in submission order", i, got[i], want[i])
		}
	}
}
