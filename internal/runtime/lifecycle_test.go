package runtime_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/mods/dummy"
	"labstor/internal/runtime"
	"labstor/internal/vtime"
)

func newDummyRig(t *testing.T, workers int) (*runtime.Runtime, *runtime.Client) {
	t.Helper()
	rt := runtime.New(runtime.Options{MaxWorkers: workers, QueueDepth: 1024})
	rt.AddDevice(device.New("dev0", device.NVMe, 32<<20))
	if _, err := rt.Mount(core.NewStack("msg::/d", core.Rules{}, []core.Vertex{
		{UUID: "dum", Type: dummy.Type},
	})); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Shutdown)
	return rt, rt.Connect(ipc.Credentials{PID: 1, UID: 0, GID: 0})
}

func TestCentralizedUpgradeUnderLoad(t *testing.T) {
	rt, cli := newDummyRig(t, 1)

	stop := make(chan struct{})
	var sent int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req := core.NewRequest(core.OpMessage)
			if err := cli.Submit("msg::/d", req); err != nil {
				return
			}
			sent++
		}
	}()

	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := rt.ModManager().Upgrade(&runtime.UpgradeRequest{
			UUID:       "dum",
			Build:      func() core.Module { return &dummy.Dummy{} },
			Mode:       runtime.Centralized,
			CodeSize:   1 << 20,
			CodeDevice: "dev0",
		}); err != nil {
			t.Fatalf("upgrade %d: %v", i, err)
		}
	}
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()

	if rt.ModManager().UpgradesDone() != 3 {
		t.Fatalf("upgrades done %d", rt.ModManager().UpgradesDone())
	}
	if rt.Registry.Generation("dum") != 3 {
		t.Fatalf("generation %d", rt.Registry.Generation("dum"))
	}
	// The message counter survived all three swaps and kept counting.
	m, _ := rt.Registry.Get("dum")
	if got := m.(*dummy.Dummy).Messages(); got != int64(sent) {
		t.Fatalf("counter %d, sent %d", got, sent)
	}
	if rt.ModManager().TotalUpgradeTime() <= 0 {
		t.Fatal("upgrade time not modeled")
	}
}

func TestDecentralizedUpgradeUpdatesClients(t *testing.T) {
	rt, cli := newDummyRig(t, 1)
	_ = cli
	// A second client whose registry view will be cloned.
	cli2 := rt.Connect(ipc.Credentials{PID: 2})
	req := core.NewRequest(core.OpMessage)
	if err := cli2.Submit("msg::/d", req); err != nil {
		t.Fatal(err)
	}
	if err := rt.ModManager().Upgrade(&runtime.UpgradeRequest{
		UUID:  "dum",
		Build: func() core.Module { return &dummy.Dummy{} },
		Mode:  runtime.Decentralized,
	}); err != nil {
		t.Fatal(err)
	}
	if rt.Registry.Generation("dum") != 1 {
		t.Fatal("central registry not swapped")
	}
}

func TestUpgradeQueuePausesAndResumes(t *testing.T) {
	rt, cli := newDummyRig(t, 1)
	// After an upgrade completes, the queue must be back to Running and
	// requests must flow.
	if err := rt.ModManager().Upgrade(&runtime.UpgradeRequest{
		UUID:  "dum",
		Build: func() core.Module { return &dummy.Dummy{} },
	}); err != nil {
		t.Fatal(err)
	}
	if st := cli.QueuePair().State(); st != ipc.Running {
		t.Fatalf("queue state after upgrade: %v", st)
	}
	req := core.NewRequest(core.OpMessage)
	if err := cli.Submit("msg::/d", req); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeErrors(t *testing.T) {
	rt, _ := newDummyRig(t, 1)
	if err := rt.ModManager().Upgrade(&runtime.UpgradeRequest{UUID: "dum"}); err == nil {
		t.Fatal("upgrade without builder succeeded")
	}
	if err := rt.ModManager().Upgrade(&runtime.UpgradeRequest{
		UUID:  "ghost",
		Build: func() core.Module { return &dummy.Dummy{} },
	}); err == nil {
		t.Fatal("upgrade of unknown UUID succeeded")
	}
}

func TestUpgradeModelsServiceInterruption(t *testing.T) {
	rt, cli := newDummyRig(t, 1)
	req := core.NewRequest(core.OpMessage)
	cli.Submit("msg::/d", req)
	before := rt.Stats()[0].Clock
	if err := rt.ModManager().Upgrade(&runtime.UpgradeRequest{
		UUID:       "dum",
		Build:      func() core.Module { return &dummy.Dummy{} },
		CodeSize:   1 << 20,
		CodeDevice: "dev0",
	}); err != nil {
		t.Fatal(err)
	}
	after := rt.Stats()[0].Clock
	if after <= before {
		t.Fatal("upgrade did not advance worker clocks (no modeled interruption)")
	}
}

func TestCrashAndRestartUnderLoad(t *testing.T) {
	rt, cli := newDummyRig(t, 2)
	cli.RestartPatience = 5 * time.Second

	// Send some traffic, then crash mid-stream.
	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			req := core.NewRequest(core.OpMessage)
			if err := cli.Submit("msg::/d", req); err != nil {
				errCh <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
		}
		errCh <- nil
	}()
	time.Sleep(time.Millisecond)
	rt.Crash()
	if rt.Running() || !rt.Crashed() {
		t.Fatal("crash state")
	}
	time.Sleep(5 * time.Millisecond)
	if err := rt.Restart(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	// All 500 messages processed despite the crash window.
	m, _ := rt.Registry.Get("dum")
	if m.(*dummy.Dummy).Messages() != 500 {
		t.Fatalf("messages %d", m.(*dummy.Dummy).Messages())
	}
}

func TestRestartWithoutCrashFails(t *testing.T) {
	rt, _ := newDummyRig(t, 1)
	if err := rt.Restart(); err == nil {
		t.Fatal("restart of running runtime succeeded")
	}
}

func TestWaitTimesOutIfNeverRestarted(t *testing.T) {
	rt, cli := newDummyRig(t, 1)
	cli.RestartPatience = 20 * time.Millisecond
	rt.Crash()
	req := core.NewRequest(core.OpMessage)
	err := cli.Submit("msg::/d", req)
	if err != runtime.ErrWaitTimeout {
		t.Fatalf("expected ErrWaitTimeout, got %v", err)
	}
	rt.Restart()
}

func TestSubmitAfterShutdown(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1})
	rt.AddDevice(device.New("dev0", device.NVMe, 1<<20))
	rt.Mount(core.NewStack("msg::/d", core.Rules{}, []core.Vertex{{UUID: "d", Type: dummy.Type}}))
	rt.Start()
	cli := rt.Connect(ipc.Credentials{PID: 1})
	rt.Shutdown()
	req := core.NewRequest(core.OpMessage)
	if err := cli.Submit("msg::/d", req); err != runtime.ErrStopped {
		t.Fatalf("expected ErrStopped, got %v", err)
	}
}

func TestModifyStackLive(t *testing.T) {
	rt, cli := newDummyRig(t, 1)
	// Insert a second dummy after the first.
	if err := rt.ModifyStack("msg::/d", "dum", &core.Vertex{UUID: "tail", Type: dummy.Type}, ""); err != nil {
		t.Fatal(err)
	}
	req := core.NewRequest(core.OpMessage)
	if err := cli.Submit("msg::/d", req); err != nil {
		t.Fatal(err)
	}
	m, _ := rt.Registry.Get("tail")
	if m.(*dummy.Dummy).Messages() != 1 {
		t.Fatal("inserted vertex not on the path")
	}
	// Remove it again.
	if err := rt.ModifyStack("msg::/d", "", nil, "tail"); err != nil {
		t.Fatal(err)
	}
	cli.Submit("msg::/d", core.NewRequest(core.OpMessage))
	if m.(*dummy.Dummy).Messages() != 1 {
		t.Fatal("removed vertex still on the path")
	}
	// Unknown mount.
	if err := rt.ModifyStack("msg::/ghost", "", nil, "x"); err == nil {
		t.Fatal("modify of unknown mount succeeded")
	}
}

func TestAsyncBatchSubmission(t *testing.T) {
	rt, cli := newDummyRig(t, 2)
	stack, _ := rt.Namespace.Lookup("msg::/d")
	reqs := make([]*core.Request, 16)
	for i := range reqs {
		reqs[i] = core.NewRequest(core.OpMessage)
		if err := cli.SubmitBatch(stack, reqs[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.WaitAll(reqs); err != nil {
		t.Fatal(err)
	}
	m, _ := rt.Registry.Get("dum")
	if m.(*dummy.Dummy).Messages() != 16 {
		t.Fatal("batch lost messages")
	}
	if cli.Clock() <= 0 {
		t.Fatal("client clock not advanced")
	}
}

func TestWorkerStatsAccounting(t *testing.T) {
	rt, cli := newDummyRig(t, 1)
	for i := 0; i < 10; i++ {
		cli.Submit("msg::/d", core.NewRequest(core.OpMessage))
	}
	ws := rt.Stats()[0]
	if ws.Processed != 10 {
		t.Fatalf("processed %d", ws.Processed)
	}
	if ws.BusyVirt <= 0 || ws.Clock <= 0 {
		t.Fatal("virtual accounting empty")
	}
	if rt.ActiveWorkers() != 1 {
		t.Fatal("active workers")
	}
	_ = vtime.Microsecond
}

func TestMountSpecValidationFailure(t *testing.T) {
	rt, _ := newDummyRig(t, 1)
	// Unknown module type fails at mount.
	if _, err := rt.MountSpec("mount: x::/y\nmods:\n  - uuid: a\n    type: no.such\n"); err == nil {
		t.Fatal("mount with unknown type succeeded")
	}
	// Incompatible interfaces fail validation.
	if _, err := rt.MountSpec(`
mount: bad::/q
mods:
  - uuid: kvs9
    type: labstor.generickvs
  - uuid: fs9
    type: labstor.labfs
    attrs:
      device: dev0
      log_mb: 2
  - uuid: drv9
    type: labstor.kernel_driver
    attrs:
      device: dev0
`); err == nil {
		t.Fatal("generickvs -> labfs composition validated")
	}
}
