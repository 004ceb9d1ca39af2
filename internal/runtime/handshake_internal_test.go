package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
)

// The submit → complete → reap handshake (DESIGN.md §9): the completion
// word in core.Request, the client's wake channel and backstop timer, and
// Wait's poll-then-park loop. check.sh runs these under -race at
// -cpu 1,2,8; the -cpu 1 leg fails if the poll loop forgets to yield.

const (
	gateType     = "test.handshake_gate"
	passGateType = "test.pass_gate"
)

// gateMod answers every request with a function of its operands, so a
// result delivered to the wrong request or before the mod ran is visible.
// A request with Flags == gated first blocks until the test sends a token
// on release. The pass variant forwards every request to the next vertex
// with e.Next instead of answering it.
type gateMod struct {
	core.Base
	entered chan struct{} // one token per gated request that reached the mod
	release chan struct{} // one token lets one gated request proceed
	repairs atomic.Int64
	served  atomic.Int64 // requests this instance has finished with
	pass    bool
}

const gated = 1

func newGateMod(pass bool) *gateMod {
	// Sized to the number of gated requests any one test has in flight.
	return &gateMod{entered: make(chan struct{}, 4), release: make(chan struct{}, 4), pass: pass}
}

func init() {
	core.RegisterType(gateType, func() core.Module { return newGateMod(false) })
	core.RegisterType(passGateType, func() core.Module { return newGateMod(true) })
}

func (g *gateMod) Info() core.ModuleInfo {
	typ := gateType
	if g.pass {
		typ = passGateType
	}
	return core.ModuleInfo{Type: typ, Version: "1.0", Consumes: core.APIAny, Produces: core.APIAny}
}

func (g *gateMod) Process(e *core.Exec, req *core.Request) error {
	if req.Flags == gated {
		g.entered <- struct{}{}
		<-g.release
	}
	g.served.Add(1)
	if g.pass {
		return e.Next(req)
	}
	req.Result = gateAnswer(req.Offset)
	return nil
}

func (g *gateMod) StateRepair() error {
	g.repairs.Add(1)
	return nil
}

func gateAnswer(off int64) int64 { return off*3 + 7 }

// handshakeRig boots a runtime with one gate stack in the given exec mode.
// The returned stop shuts it down once, however often it is called, so a
// watchdog and the test's cleanup can both use it.
func handshakeRig(t *testing.T, workers int, mode core.ExecMode) (*Runtime, *core.Stack, *gateMod, func()) {
	t.Helper()
	rt := New(Options{MaxWorkers: workers, QueueDepth: 256, PerfSampleEvery: PerfSamplingDisabled})
	rt.AddDevice(device.New("dev0", device.NVMe, 1<<20))
	stack, err := rt.Mount(core.NewStack("msg::/gate", core.Rules{ExecMode: mode}, []core.Vertex{
		{UUID: "gate", Type: gateType},
	}))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	var once sync.Once
	stop := func() { once.Do(rt.Shutdown) }
	t.Cleanup(stop)
	m, err := rt.Registry.Get("gate")
	if err != nil {
		t.Fatal(err)
	}
	return rt, stack, m.(*gateMod), stop
}

// within fails the test if fn has not returned after d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %v", what, d)
	}
}

// TestHandshakeStress hammers the handshake from nine clients at once —
// eight doing Call, one doing SubmitBatch/WaitAll windows of 16 — and
// checks every result. A lost wake-up would cost a backstop period per
// occurrence or, with the backstop broken too, hang: the watchdog turns a
// stall into a failure by stopping the runtime, which makes every Wait
// return ErrStopped.
func TestHandshakeStress(t *testing.T) {
	const (
		callers = 8
		calls   = 20000
		window  = 16
		windows = calls / window
	)
	rt, stack, _, stop := handshakeRig(t, 2, core.ExecAsync)

	finished := make(chan struct{})
	var progress atomic.Int64
	go func() {
		last := int64(-1)
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-finished:
				return
			case <-tick.C:
				now := progress.Load()
				if now == last {
					t.Errorf("no request completed in 5s (stuck at %d): lost wake-up", now)
					stop()
					return
				}
				last = now
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		cli := rt.Connect(ipc.Credentials{PID: 10 + c})
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				off := int64(c*calls + i)
				req, err := cli.Call("msg::/gate", core.OpMessage, func(r *core.Request) { r.Offset = off })
				if err != nil {
					t.Errorf("caller %d call %d: %v", c, i, err)
					return
				}
				if !req.Done() || req.Result != gateAnswer(off) {
					t.Errorf("caller %d call %d: done=%v result=%d, want %d", c, i, req.Done(), req.Result, gateAnswer(off))
					return
				}
				progress.Add(1)
			}
		}(c)
	}
	batcher := rt.Connect(ipc.Credentials{PID: 99})
	wg.Add(1)
	go func() {
		defer wg.Done()
		reqs := make([]*core.Request, window)
		for w := 0; w < windows; w++ {
			for i := range reqs {
				reqs[i] = core.AcquireRequest(core.OpMessage)
				reqs[i].Offset = int64(-(w*window + i))
			}
			if err := batcher.SubmitBatch(stack, reqs); err != nil {
				t.Errorf("window %d: SubmitBatch: %v", w, err)
				return
			}
			if err := batcher.WaitAll(reqs); err != nil {
				t.Errorf("window %d: WaitAll: %v", w, err)
				return
			}
			for i, req := range reqs {
				if want := gateAnswer(int64(-(w*window + i))); !req.Done() || req.Result != want {
					t.Errorf("window %d req %d: done=%v result=%d, want %d", w, i, req.Done(), req.Result, want)
					return
				}
				req.Release()
			}
			progress.Add(window)
		}
	}()
	wg.Wait()
	close(finished)
}

// TestHandshakeStaleWakeToken: a request that outlives the backstop can
// leave a token in the client's wake channel (the backstop wakes the
// waiter, the request completes, Wait returns on the word and the
// completer's signal lands afterwards). The next Wait must treat that token
// as "re-check the word", not as "done".
func TestHandshakeStaleWakeToken(t *testing.T) {
	rt, stack, gate, _ := handshakeRig(t, 1, core.ExecAsync)
	cli := rt.Connect(ipc.Credentials{PID: 1})

	submitGated := func(off int64) *core.Request {
		req := core.NewRequest(core.OpMessage)
		req.Flags = gated
		req.Offset = off
		if err := cli.SubmitBatch(stack, []*core.Request{req}); err != nil {
			t.Fatal(err)
		}
		<-gate.entered
		return req
	}

	// First request: held in the mod across several backstop periods, so
	// the waiter is parked and backstop-woken before it completes.
	first := submitGated(1)
	waited := make(chan error, 1)
	go func() { waited <- cli.Wait(first) }()
	time.Sleep(4 * parkBackstop)
	gate.release <- struct{}{}
	within(t, 5*time.Second, "Wait on the first request", func() {
		if err := <-waited; err != nil {
			t.Errorf("Wait: %v", err)
		}
	})
	if first.Result != gateAnswer(1) {
		t.Fatalf("first result %d", first.Result)
	}
	// Whether the race above left its token depends on timing; a stale token
	// is a state the protocol allows, so make sure one is there.
	select {
	case cli.wake <- struct{}{}:
	default:
	}

	// Second request: its mod has not run and will not until released.
	second := submitGated(2)
	go func() { waited <- cli.Wait(second) }()
	select {
	case err := <-waited:
		done, result := second.Done(), second.Result
		gate.release <- struct{}{} // let the worker go so the rig can shut down
		t.Fatalf("Wait returned (%v) before the request's mod ran: done=%v result=%d", err, done, result)
	case <-time.After(4 * parkBackstop):
	}
	gate.release <- struct{}{}
	within(t, 5*time.Second, "Wait on the second request", func() {
		if err := <-waited; err != nil {
			t.Errorf("Wait: %v", err)
		}
	})
	if !second.Done() || second.Result != gateAnswer(2) {
		t.Fatalf("second: done=%v result=%d", second.Done(), second.Result)
	}
}

// TestWaitOnCompletedRequest: reaping a request that is already complete
// returns at once, any number of times, without touching the wake channel
// or the backstop.
func TestWaitOnCompletedRequest(t *testing.T) {
	rt, stack, _, _ := handshakeRig(t, 1, core.ExecAsync)
	cli := rt.Connect(ipc.Credentials{PID: 1})
	req := core.NewRequest(core.OpMessage)
	req.Offset = 5
	if err := cli.SubmitStack(stack, req); err != nil {
		t.Fatal(err)
	}
	within(t, 5*time.Second, "Wait on a completed request", func() {
		for i := 0; i < 2; i++ {
			if err := cli.Wait(req); err != nil {
				t.Errorf("Wait %d: %v", i, err)
			}
		}
		if err := cli.WaitAll([]*core.Request{req, req}); err != nil {
			t.Errorf("WaitAll: %v", err)
		}
	})
	if req.Result != gateAnswer(5) {
		t.Fatalf("result %d", req.Result)
	}
	if len(cli.wake) != 0 {
		t.Fatal("a request that was never parked on left a wake token")
	}
}

// TestHandshakePooledReuse recycles each request the instant Wait returns —
// while the worker may still be inside MarkDone — and lets two clients trade
// pooled objects. MarkDone touching the request after publishing done, or
// signaling a waker it read too late, shows up as a race report or a wrong
// result.
func TestHandshakePooledReuse(t *testing.T) {
	rt, stack, _, _ := handshakeRig(t, 2, core.ExecAsync)
	const rounds = 20000
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cli := rt.Connect(ipc.Credentials{PID: 1 + c})
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				off := int64(c*rounds + i)
				req := core.AcquireRequest(core.OpMessage)
				req.Offset = off
				if err := cli.SubmitStack(stack, req); err != nil {
					t.Errorf("client %d round %d: %v", c, i, err)
					return
				}
				if req.Result != gateAnswer(off) {
					t.Errorf("client %d round %d: result %d, want %d", c, i, req.Result, gateAnswer(off))
					return
				}
				req.Release()
			}
		}(c)
	}
	within(t, 2*time.Minute, "pooled submit/release loop", wg.Wait)
}

// TestWaitAcrossCrash: a crash is noticed from both phases of Wait. The
// first request is submitted into an already crashed Runtime, so the crash
// is in effect throughout the poll phase; the second waiter is parked on a
// gated request when the crash hits. Both complete after Restart.
func TestWaitAcrossCrash(t *testing.T) {
	rt, stack, gate, _ := handshakeRig(t, 1, core.ExecAsync)

	t.Run("poll phase", func(t *testing.T) {
		cli := rt.Connect(ipc.Credentials{PID: 1})
		rt.Crash()
		req := core.NewRequest(core.OpMessage)
		req.Offset = 11
		waited := make(chan error, 1)
		go func() { waited <- cli.SubmitStack(stack, req) }()
		select {
		case err := <-waited:
			t.Fatalf("request completed (%v) while the Runtime was crashed", err)
		case <-time.After(4 * parkBackstop):
		}
		repairs := gate.repairs.Load()
		if err := rt.Restart(); err != nil {
			t.Fatal(err)
		}
		within(t, 5*time.Second, "Wait after Restart", func() {
			if err := <-waited; err != nil {
				t.Errorf("SubmitStack: %v", err)
			}
		})
		if req.Result != gateAnswer(11) || gate.repairs.Load() != repairs+1 {
			t.Fatalf("result %d, repairs %d → %d", req.Result, repairs, gate.repairs.Load())
		}
	})

	t.Run("parked phase", func(t *testing.T) {
		cli := rt.Connect(ipc.Credentials{PID: 2})
		held := core.NewRequest(core.OpMessage)
		held.Flags = gated
		held.Offset = 21
		queued := core.NewRequest(core.OpMessage)
		queued.Offset = 22
		reqs := []*core.Request{held, queued}
		for i := range reqs {
			if err := cli.SubmitBatch(stack, reqs[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
		<-gate.entered
		waited := make(chan error, 1)
		go func() { waited <- cli.WaitAll(reqs) }()
		time.Sleep(2 * parkBackstop) // the waiter is parked on held by now
		rt.Crash()
		// The worker finishes the request it was inside, then halts: queued
		// stays frozen in the ring until Restart.
		gate.release <- struct{}{}
		within(t, 5*time.Second, "held request", func() {
			for !held.Done() {
				time.Sleep(100 * time.Microsecond)
			}
		})
		select {
		case err := <-waited:
			t.Fatalf("WaitAll returned (%v) while the Runtime was crashed", err)
		case <-time.After(4 * parkBackstop):
		}
		if queued.Done() {
			t.Fatal("queued request completed while the Runtime was crashed")
		}
		if err := rt.Restart(); err != nil {
			t.Fatal(err)
		}
		within(t, 5*time.Second, "WaitAll after Restart", func() {
			if err := <-waited; err != nil {
				t.Errorf("WaitAll: %v", err)
			}
		})
		if held.Result != gateAnswer(21) || queued.Result != gateAnswer(22) {
			t.Fatalf("results %d, %d", held.Result, queued.Result)
		}
	})
}

// TestWaitReturnsErrStopped: a waiter parked on a request the Runtime will
// never run is released by Shutdown with ErrStopped.
func TestWaitReturnsErrStopped(t *testing.T) {
	rt, stack, _, stop := handshakeRig(t, 1, core.ExecAsync)
	cli := rt.Connect(ipc.Credentials{PID: 1})
	rt.Crash() // freeze the queue so the request stays outstanding
	req := core.NewRequest(core.OpMessage)
	if err := cli.SubmitBatch(stack, []*core.Request{req}); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cli.Wait(req) }()
	time.Sleep(2 * parkBackstop)
	stop()
	within(t, 5*time.Second, "Wait after Shutdown", func() {
		if err := <-waited; err != ErrStopped {
			t.Errorf("Wait returned %v, want ErrStopped", err)
		}
	})
	if err := cli.SubmitStack(stack, core.NewRequest(core.OpMessage)); err != ErrStopped {
		t.Fatalf("SubmitStack on a stopped Runtime: %v, want ErrStopped", err)
	}
}

// BenchmarkClientCallNop is the whole handshake on a one-vertex stack:
// Call → ring → worker → completion word → Wait. check.sh's bench smoke
// prints its ns/op and allocs/op.
func BenchmarkClientCallNop(b *testing.B) {
	rt := New(Options{MaxWorkers: 1, QueueDepth: 256})
	rt.AddDevice(device.New("dev0", device.NVMe, 1<<20))
	if _, err := rt.Mount(core.NewStack("msg::/gate", core.Rules{}, []core.Vertex{{UUID: "gate", Type: gateType}})); err != nil {
		b.Fatal(err)
	}
	rt.Start()
	defer rt.Shutdown()
	cli := rt.Connect(ipc.Credentials{PID: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := cli.Call("msg::/gate", core.OpMessage, nil)
		if err != nil || req.Result != gateAnswer(0) {
			b.Fatalf("Call: %v, result %d", err, req.Result)
		}
	}
}
