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
// stack edits and restarts apply one at a time under Runtime.ctl, and
// upgrades and stack edits run under quiesce, so no async request is inside
// a stack while it changes.

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

// TestModifyStackDrainsRequestInRemovedVertex removes the vertex a request
// is inside. ModifyStack must wait for the request to leave the stack: the
// request then walks the old DAG to its end, and the edit applies after.
func TestModifyStackDrainsRequestInRemovedVertex(t *testing.T) {
	rt := New(Options{MaxWorkers: 1, QueueDepth: 16, PerfSampleEvery: PerfSamplingDisabled})
	stack, err := rt.Mount(core.NewStack("msg::/pass", core.Rules{}, []core.Vertex{
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
	cli := rt.Connect(ipc.Credentials{PID: 1})

	req := core.NewRequest(core.OpMessage)
	req.Flags = gated
	if err := cli.SubmitBatch(stack, []*core.Request{req}); err != nil {
		t.Fatal(err)
	}
	<-hold.entered
	edited := make(chan error, 1)
	go func() { edited <- rt.ModifyStack("msg::/pass", "", nil, "hold") }()
	var early error
	returnedEarly := false
	select {
	case early = <-edited:
		returnedEarly = true
	case <-time.After(20 * time.Millisecond):
	}
	hold.release <- struct{}{}
	if err := cli.Wait(req); err != nil {
		t.Fatal(err)
	}
	if req.Err != nil {
		t.Fatalf("request held in the removed vertex failed: %v", req.Err)
	}
	if returnedEarly {
		t.Fatalf("ModifyStack returned (%v) while a request was inside the vertex it removes", early)
	}
	within(t, 5*time.Second, "ModifyStack after the request left the stack", func() {
		if err := <-edited; err != nil {
			t.Errorf("ModifyStack: %v", err)
		}
	})
	if vs := stack.Vertices(); len(vs) != 1 || vs[0].UUID != "tail" {
		t.Fatalf("stack after the edit: %+v", vs)
	}
}

// TestModifyStackUnderSyncRequestInRemovedVertex removes the vertex a
// sync-mode request is inside. The request walks the client's thread, not
// a queue, so ModifyStack does not wait for it; the request must still
// finish without error on the plan it pinned at submission.
func TestModifyStackUnderSyncRequestInRemovedVertex(t *testing.T) {
	rt := New(Options{MaxWorkers: 1, QueueDepth: 16, PerfSampleEvery: PerfSamplingDisabled})
	stack, err := rt.Mount(core.NewStack("msg::/pass", core.Rules{ExecMode: core.ExecSync}, []core.Vertex{
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
	cli := rt.Connect(ipc.Credentials{PID: 1})

	req := core.NewRequest(core.OpMessage)
	req.Flags = gated
	walked := make(chan error, 1)
	go func() { walked <- cli.SubmitStack(stack, req) }()
	<-hold.entered
	within(t, 5*time.Second, "ModifyStack under a sync request", func() {
		if err := rt.ModifyStack("msg::/pass", "", nil, "hold"); err != nil {
			t.Errorf("ModifyStack: %v", err)
		}
	})
	hold.release <- struct{}{}
	within(t, 5*time.Second, "the held sync request", func() {
		if err := <-walked; err != nil {
			t.Errorf("request held in the removed vertex failed: %v", err)
		}
	})
	if vs := stack.Vertices(); len(vs) != 1 || vs[0].UUID != "tail" {
		t.Fatalf("stack after the edit: %+v", vs)
	}
}

// TestUpgradeNeverSwapsUnderBusyWorker holds a request inside the module
// being upgraded for longer than the upgrade's quiesce deadline. The
// upgrade must not swap the module while the old instance still holds the
// request: it aborts, stays queued, and applies once the request is done.
func TestUpgradeNeverSwapsUnderBusyWorker(t *testing.T) {
	rt, stack, old, _ := handshakeRig(t, 1, core.ExecAsync)
	cli := rt.Connect(ipc.Credentials{PID: 1})
	req := core.NewRequest(core.OpMessage)
	req.Flags = gated
	req.Offset = 3
	if err := cli.SubmitBatch(stack, []*core.Request{req}); err != nil {
		t.Fatal(err)
	}
	<-old.entered

	next := newGateMod(false)
	upgraded := rt.ModManager().RequestUpgrade(&UpgradeRequest{
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
	if err := cli.Wait(req); err != nil || req.Result != gateAnswer(3) {
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
	upgraded := rt.ModManager().RequestUpgrade(&UpgradeRequest{
		UUID:  "gate",
		Build: func() core.Module { return next },
	})
	within(t, 5*time.Second, "upgrade start", func() {
		for rt.ModManager().PendingUpgrades() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
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
