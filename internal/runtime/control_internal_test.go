package runtime

import (
	"strings"
	"sync"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/ipc"
	"labstor/internal/mods/dummy"
)

// The control plane (DESIGN.md "Control plane"): rebalances, upgrades,
// stack edits and restarts apply one at a time under Runtime.ctl. Upgrades
// run under quiesce, which gates only the stacks that reach the upgraded
// module and waits for the walkers in them, async and sync alike; stack
// edits publish without waiting; Restart waits for every walker.

// TestConcurrentConnectAssignsEveryQueue connects 16 clients at once to an
// 8-worker round-robin runtime, 300 times over. Once every Connect has
// returned, each registered queue must be polled by exactly one worker: a
// queue no worker polls parks its client in Wait forever.
func TestConcurrentConnectAssignsEveryQueue(t *testing.T) {
	const runtimes, clients = 300, 16
	for r := 0; r < runtimes; r++ {
		rt := New(Options{MaxWorkers: 8, QueueDepth: 16, PerfSampleEvery: PerfSamplingDisabled})
		rt.Start()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rt.Connect(ipc.Credentials{PID: 1 + c})
			}(c)
		}
		wg.Wait()
		owners := make(map[int]int)
		for _, ws := range rt.Stats() {
			for _, id := range ws.Queues {
				owners[id]++
			}
		}
		var lost []int
		for _, q := range rt.Orchestrator().Queues() {
			if owners[q.ID] != 1 {
				lost = append(lost, q.ID)
			}
		}
		rt.Shutdown()
		if len(lost) > 0 {
			t.Fatalf("runtime %d: queues %v are not polled by exactly one worker", r, lost)
		}
	}
}

// holdIn starts req, flagged gated, on stack from a new client — queued
// for a worker (async) or walked by the client's thread (sync) — and
// returns once the request is inside the gate module g, with a function
// that waits for its outcome.
func holdIn(t *testing.T, rt *Runtime, stack *core.Stack, g *gateMod, req *core.Request) (finish func() error) {
	t.Helper()
	cli := rt.Connect(ipc.Credentials{PID: 100})
	req.Flags = gated
	if stack.Rules.ExecMode == core.ExecAsync {
		if err := cli.SubmitBatch(stack, []*core.Request{req}); err != nil {
			t.Fatal(err)
		}
		<-g.entered
		return func() error { return cli.Wait(req) }
	}
	walked := make(chan error, 1)
	go func() { walked <- cli.SubmitStack(stack, req) }()
	<-g.entered
	return func() error { return <-walked }
}

var execModes = []core.ExecMode{core.ExecAsync, core.ExecSync}

// TestModifyStackUnderSyncRequestInRemovedVertex removes the vertex a
// request is inside, in either exec mode. The edit publishes without
// waiting for the request, which finishes without error on the plan it
// pinned at submission.
func TestModifyStackUnderSyncRequestInRemovedVertex(t *testing.T) {
	for _, mode := range execModes {
		t.Run(mode.String(), func(t *testing.T) {
			rt := New(Options{MaxWorkers: 1, QueueDepth: 16, PerfSampleEvery: PerfSamplingDisabled})
			stack, err := rt.Mount(core.NewStack("msg::/pass", core.Rules{ExecMode: mode}, []core.Vertex{
				{UUID: "hold", Type: passGateType, Outputs: []string{"tail"}},
				{UUID: "tail", Type: dummy.Type},
			}))
			if err != nil {
				t.Fatal(err)
			}
			rt.Start()
			t.Cleanup(rt.Shutdown)
			m, err := rt.Registry.Get("hold")
			if err != nil {
				t.Fatal(err)
			}
			hold := m.(*gateMod)
			t.Cleanup(func() { hold.release <- struct{}{} }) // never strand the walker

			req := core.NewRequest(core.OpMessage)
			finish := holdIn(t, rt, stack, hold, req)
			within(t, 50*time.Millisecond, "ModifyStack under a held request", func() {
				if err := rt.ModifyStack("msg::/pass", "", nil, "hold"); err != nil {
					t.Errorf("ModifyStack: %v", err)
				}
			})
			hold.release <- struct{}{}
			within(t, 5*time.Second, "the held request", func() {
				if err := finish(); err != nil || req.Err != nil {
					t.Errorf("request held in the removed vertex failed: %v, %v", err, req.Err)
				}
			})
			if vs := stack.Vertices(); len(vs) != 1 || vs[0].UUID != "tail" {
				t.Fatalf("stack after the edit: %+v", vs)
			}
		})
	}
}

// TestUpgradeNeverSwapsUnderBusyWorker holds a request, async or sync,
// inside the module being upgraded for longer than the upgrade's quiesce
// deadline. The upgrade must not swap the module while the old instance
// still holds the request: it aborts, retries, and applies once the
// request is done.
func TestUpgradeNeverSwapsUnderBusyWorker(t *testing.T) {
	for _, mode := range execModes {
		t.Run(mode.String(), func(t *testing.T) {
			rt, stack, old, _ := handshakeRig(t, 1, mode)
			t.Cleanup(func() { old.release <- struct{}{} }) // never strand the walker
			req := core.NewRequest(core.OpMessage)
			req.Offset = 3
			finish := holdIn(t, rt, stack, old, req)

			next := newGateMod(false)
			upgraded := startUpgrade(t, rt, &UpgradeRequest{
				UUID:  "gate",
				Build: func() core.Module { return next },
			})
			time.Sleep(quiesceTimeout + 100*time.Millisecond)
			during, _ := rt.Registry.Get("gate")
			old.release <- struct{}{}
			within(t, 5*time.Second, "upgrade after the request finished", func() {
				if err := <-upgraded; err != nil {
					t.Errorf("Upgrade: %v", err)
				}
			})
			if err := finish(); err != nil || req.Result != gateAnswer(3) {
				t.Fatalf("held request: %v, result %d", err, req.Result)
			}
			if during != core.Module(old) {
				t.Fatal("the upgrade swapped in the new instance while the old one held a request")
			}
			if now, _ := rt.Registry.Get("gate"); now != core.Module(next) {
				t.Fatal("the upgrade did not apply once the request finished")
			}
			aborted := false
			for _, ev := range rt.Events().Recent() {
				aborted = aborted || strings.Contains(ev.Msg, "upgrade aborted")
			}
			if !aborted {
				t.Fatal("no flight event for the aborted upgrade")
			}
		})
	}
}

// startUpgrade runs Upgrade(up) on its own goroutine and returns once a
// control operation, the upgrade, holds ctl, with the channel that yields
// the upgrade's result.
func startUpgrade(t *testing.T, rt *Runtime, up *UpgradeRequest) <-chan error {
	t.Helper()
	upgraded := make(chan error, 1)
	go func() { upgraded <- rt.Upgrade(up) }()
	within(t, 5*time.Second, "upgrade start", func() {
		for rt.ctl.TryLock() {
			rt.ctl.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	})
	return upgraded
}

// TestUpgradeNeverOutlivesTheRuntime stops the runtime under an upgrade.
// An upgrade issued after Shutdown, and one waiting for a request held
// inside its module when Shutdown comes, must each return ErrStopped at
// once and leave the old instance in place.
func TestUpgradeNeverOutlivesTheRuntime(t *testing.T) {
	for _, c := range []struct {
		name string
		held bool
	}{{"after shutdown", false}, {"held by a walker", true}} {
		t.Run(c.name, func(t *testing.T) {
			rt, stack, old, stop := handshakeRig(t, 1, core.ExecSync)
			up := &UpgradeRequest{UUID: "gate", Build: func() core.Module { return newGateMod(false) }}
			upgrade := func() error { return rt.Upgrade(up) }
			if c.held {
				t.Cleanup(func() { old.release <- struct{}{} }) // never strand the walker
				holdIn(t, rt, stack, old, core.NewRequest(core.OpMessage))
				upgraded := startUpgrade(t, rt, up)
				upgrade = func() error { return <-upgraded }
			}
			stop()
			within(t, time.Second, "Upgrade once the runtime stopped", func() {
				if err := upgrade(); err != ErrStopped {
					t.Errorf("Upgrade: %v, want ErrStopped", err)
				}
			})
			if now, _ := rt.Registry.Get("gate"); now != core.Module(old) {
				t.Fatal("an upgrade swapped the module after Shutdown")
			}
		})
	}
}

// TestControlPlaneSkipsUnrelatedStack holds a request in msg::/gate. An
// edit of msg::/other must return at once, and an upgrade of a module only
// msg::/other uses must complete while the request is still held: the
// control plane waits only for the stacks it changes.
func TestControlPlaneSkipsUnrelatedStack(t *testing.T) {
	rt, stack, gate, _ := handshakeRig(t, 2, core.ExecAsync)
	t.Cleanup(func() { gate.release <- struct{}{} }) // never strand the worker
	if _, err := rt.Mount(core.NewStack("msg::/other", core.Rules{}, []core.Vertex{{UUID: "odum", Type: dummy.Type}})); err != nil {
		t.Fatal(err)
	}
	req := core.NewRequest(core.OpMessage)
	finish := holdIn(t, rt, stack, gate, req)

	start := time.Now()
	if err := rt.ModifyStack("msg::/other", "odum", &core.Vertex{UUID: "probe", Type: dummy.Type}, ""); err != nil {
		t.Fatalf("edit of the other stack: %v", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("edit of the other stack took %v while a request was held elsewhere", d)
	}
	within(t, 2*time.Second, "upgrade of the other stack's module", func() {
		if err := rt.Upgrade(&UpgradeRequest{UUID: "odum", Build: func() core.Module { return &dummy.Dummy{} }}); err != nil {
			t.Errorf("Upgrade: %v", err)
		}
	})
	cli := rt.Connect(ipc.Credentials{PID: 1})
	if err := cli.Submit("msg::/other", core.NewRequest(core.OpMessage)); err != nil {
		t.Fatalf("request on the other stack: %v", err)
	}
	gate.release <- struct{}{}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartWaitsForSyncRequest crashes the runtime while a sync request
// is inside a module. Restart must not run StateRepair until the request
// has left, and the request finishes without error.
func TestRestartWaitsForSyncRequest(t *testing.T) {
	rt, stack, gate, _ := handshakeRig(t, 1, core.ExecSync)
	t.Cleanup(func() { gate.release <- struct{}{} }) // never strand the walker
	req := core.NewRequest(core.OpMessage)
	req.Offset = 4
	finish := holdIn(t, rt, stack, gate, req)
	rt.Crash()
	restarted := make(chan error, 1)
	go func() { restarted <- rt.Restart() }()
	select {
	case err := <-restarted:
		t.Fatalf("Restart returned (%v) while a sync request was inside the module", err)
	case <-time.After(20 * time.Millisecond):
	}
	if n := gate.repairs.Load(); n != 0 {
		t.Fatalf("StateRepair ran %d times while a sync request was inside the module", n)
	}
	gate.release <- struct{}{}
	within(t, 5*time.Second, "Restart after the request left", func() {
		if err := <-restarted; err != nil {
			t.Errorf("Restart: %v", err)
		}
	})
	if err := finish(); err != nil || req.Result != gateAnswer(4) {
		t.Fatalf("held request: %v, result %d", err, req.Result)
	}
	if n := gate.repairs.Load(); n != 1 {
		t.Fatalf("StateRepair ran %d times, want 1", n)
	}
}

// TestConnectDuringUpgradeWaitsForSwap connects a client while an upgrade
// is waiting for a held request. The new client's queue is not assigned
// until the swap, so its request runs on the new instance, not on an idle
// worker against the old one.
func TestConnectDuringUpgradeWaitsForSwap(t *testing.T) {
	rt, stack, old, _ := handshakeRig(t, 2, core.ExecAsync)
	holder := rt.Connect(ipc.Credentials{PID: 1})
	held := core.NewRequest(core.OpMessage)
	held.Flags = gated
	if err := holder.SubmitBatch(stack, []*core.Request{held}); err != nil {
		t.Fatal(err)
	}
	<-old.entered

	next := newGateMod(false)
	upgraded := startUpgrade(t, rt, &UpgradeRequest{
		UUID:  "gate",
		Build: func() core.Module { return next },
	})
	late := make(chan *core.Request, 1)
	go func() {
		cli := rt.Connect(ipc.Credentials{PID: 2})
		req := core.NewRequest(core.OpMessage)
		req.Offset = 5
		if err := cli.SubmitStack(stack, req); err != nil {
			t.Errorf("late client: %v", err)
		}
		late <- req
	}()
	time.Sleep(50 * time.Millisecond) // well inside the quiesce deadline
	old.release <- struct{}{}
	within(t, 5*time.Second, "upgrade", func() {
		if err := <-upgraded; err != nil {
			t.Errorf("Upgrade: %v", err)
		}
	})
	within(t, 5*time.Second, "late client's request", func() {
		if req := <-late; req.Result != gateAnswer(5) {
			t.Errorf("late request result %d", req.Result)
		}
	})
	if err := holder.Wait(held); err != nil {
		t.Fatal(err)
	}
	if o, n := old.served.Load(), next.served.Load(); o != 1 || n != 1 {
		t.Fatalf("old instance served %d requests, new one %d; want 1 and 1 (the late client's on the new one)", o, n)
	}
}
