package runtime_test

import (
	"fmt"
	"strings"
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
		if err := rt.Upgrade(&runtime.UpgradeRequest{
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
	// Requests still flow after the upgrades.
	if err := cli.Submit("msg::/d", core.NewRequest(core.OpMessage)); err != nil {
		t.Fatal(err)
	}
	sent++

	if done := rt.UpgradeStats().Done; done != 3 {
		t.Fatalf("upgrades done %d", done)
	}
	if rt.Registry.Generation("dum") != 3 {
		t.Fatalf("generation %d", rt.Registry.Generation("dum"))
	}
	// The message counter survived all three swaps and kept counting.
	m, _ := rt.Registry.Get("dum")
	if got := m.(*dummy.Dummy).Messages(); got != int64(sent) {
		t.Fatalf("counter %d, sent %d", got, sent)
	}
	if rt.UpgradeStats().TotalVT <= 0 {
		t.Fatal("upgrade time not modeled")
	}
}

// TestDecentralizedUpgradeUpdatesClients upgrades a module that a sync and
// an async stack share. The client's sync path must walk the one upgraded
// instance: configured with the module's attrs, counting every message in
// one counter, and swapped safely under a client that keeps walking
// (check.sh runs it under -race).
func TestDecentralizedUpgradeUpdatesClients(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 64})
	rt.AddDevice(device.New("dev0", device.NVMe, 32<<20))
	stacks := map[core.ExecMode]*core.Stack{}
	for mode, mount := range map[core.ExecMode]string{core.ExecAsync: "msg::/async", core.ExecSync: "msg::/sync"} {
		s, err := rt.Mount(core.NewStack(mount, core.Rules{ExecMode: mode}, []core.Vertex{
			{UUID: "dum", Type: dummy.Type, Attrs: map[string]string{"cost_ns": "7000"}},
		}))
		if err != nil {
			t.Fatal(err)
		}
		stacks[mode] = s
	}
	rt.Start()
	t.Cleanup(rt.Shutdown)
	cli := rt.Connect(ipc.Credentials{PID: 1})
	send := func(cli *runtime.Client, mode core.ExecMode) (*core.Request, error) {
		req := core.NewRequest(core.OpMessage)
		return req, cli.SubmitStack(stacks[mode], req)
	}
	upgrade := func() error {
		return rt.Upgrade(&runtime.UpgradeRequest{
			UUID:  "dum",
			Build: func() core.Module { return &dummy.Dummy{} },
			Mode:  runtime.Decentralized,
		})
	}
	counted := func() int64 {
		m, _ := rt.Registry.Get("dum")
		return m.(*dummy.Dummy).Messages()
	}

	if _, err := send(cli, core.ExecSync); err != nil {
		t.Fatal(err)
	}
	if err := upgrade(); err != nil {
		t.Fatal(err)
	}
	if rt.Registry.Generation("dum") != 1 {
		t.Fatal("central registry not swapped")
	}
	req, err := send(cli, core.ExecSync)
	if err != nil {
		t.Fatal(err)
	}
	if req.CPUTime < 7000 {
		t.Fatalf("sync request after the upgrade charged %v, want at least the module's cost_ns of 7000", req.CPUTime)
	}
	if _, err := send(cli, core.ExecAsync); err != nil {
		t.Fatal(err)
	}
	if got := counted(); got != 3 {
		t.Fatalf("the module counted %d of 3 messages sent over the sync and async paths", got)
	}

	walker := rt.Connect(ipc.Credentials{PID: 2})
	stop := make(chan struct{})
	walked := make(chan int64)
	go func() {
		n := int64(0)
		defer func() { walked <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := send(walker, core.ExecSync); err != nil {
				t.Errorf("sync walker: %v", err)
				return
			}
			n++
		}
	}()
	for i := 0; i < 20; i++ {
		if err := upgrade(); err != nil {
			t.Errorf("upgrade %d: %v", i, err)
			break
		}
	}
	close(stop)
	if n := <-walked; counted() != 3+n {
		t.Fatalf("the module counted %d messages across 20 upgrades, %d were sent", counted(), 3+n)
	}
}

func TestUpgradeErrors(t *testing.T) {
	rt, _ := newDummyRig(t, 1)
	if err := rt.Upgrade(&runtime.UpgradeRequest{UUID: "dum"}); err == nil {
		t.Fatal("upgrade without builder succeeded")
	}
	if err := rt.Upgrade(&runtime.UpgradeRequest{
		UUID:  "ghost",
		Build: func() core.Module { return &dummy.Dummy{} },
	}); err == nil {
		t.Fatal("upgrade of unknown UUID succeeded")
	}
	err := rt.Upgrade(&runtime.UpgradeRequest{
		UUID:       "dum",
		Build:      func() core.Module { return &dummy.Dummy{} },
		CodeSize:   1 << 20,
		CodeDevice: "dev9",
	})
	if err == nil || !strings.Contains(err.Error(), `"dev9"`) {
		t.Fatalf("upgrade loading its code from an unknown device: %v, want an error naming it", err)
	}
	if rt.Registry.Generation("dum") != 0 {
		t.Fatal("an upgrade from an unknown code device swapped the module")
	}
}

func TestUpgradeModelsServiceInterruption(t *testing.T) {
	rt, cli := newDummyRig(t, 1)
	req := core.NewRequest(core.OpMessage)
	cli.Submit("msg::/d", req)
	before := rt.Stats()[0].Clock
	if err := rt.Upgrade(&runtime.UpgradeRequest{
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

// TestSyncWalkChecksRuntimeState: a sync walk that starts while the
// runtime is crashed waits for the restart, as Wait does — up to
// RestartPatience, then ErrWaitTimeout — and one that starts after
// Shutdown returns ErrStopped.
func TestSyncWalkChecksRuntimeState(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1})
	stack, err := rt.Mount(core.NewStack("msg::/s", core.Rules{ExecMode: core.ExecSync}, []core.Vertex{{UUID: "d", Type: dummy.Type}}))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	cli := rt.Connect(ipc.Credentials{PID: 1})
	rt.Crash()
	walked := make(chan error, 1)
	go func() { walked <- cli.SubmitStack(stack, core.NewRequest(core.OpMessage)) }()
	select {
	case err := <-walked:
		t.Fatalf("sync walk ran (%v) while the runtime was crashed", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := rt.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := <-walked; err != nil {
		t.Fatalf("sync walk after Restart: %v", err)
	}

	cli.RestartPatience = 20 * time.Millisecond
	rt.Crash()
	if err := cli.SubmitStack(stack, core.NewRequest(core.OpMessage)); err != runtime.ErrWaitTimeout {
		t.Fatalf("sync walk into a runtime never restarted: %v, want ErrWaitTimeout", err)
	}
	if err := rt.Restart(); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if err := cli.SubmitStack(stack, core.NewRequest(core.OpMessage)); err != runtime.ErrStopped {
		t.Fatalf("sync walk after Shutdown: %v, want ErrStopped", err)
	}
	m, _ := rt.Registry.Get("d")
	if n := m.(*dummy.Dummy).Messages(); n != 1 {
		t.Fatalf("the module ran %d walks, want only the one after Restart", n)
	}
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
	// An edit that fails validation publishes nothing: the next request
	// walks the stack as it was.
	if err := rt.ModifyStack("msg::/d", "dum", &core.Vertex{UUID: "x", Type: dummy.Type, Outputs: []string{"nowhere"}}, ""); err == nil {
		t.Fatal("insert with a dangling output succeeded")
	}
	if s, _ := rt.Namespace.Lookup("msg::/d"); s.Len() != 1 {
		t.Fatalf("stack after a failed edit: %+v", s.Vertices())
	}
	if err := cli.Submit("msg::/d", core.NewRequest(core.OpMessage)); err != nil {
		t.Fatalf("request after a failed edit: %v", err)
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

// TestMountRefusesRedefinedVertex: a vertex UUID names one registry
// instance for the runtime's life, across unmounts. A later stack may name
// it again and leave its attributes out, but not give one another value:
// the shared instance would run on the first value without a word.
func TestMountRefusesRedefinedVertex(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1})
	rt.AddDevice(device.New("nvme0", device.NVMe, 32<<20))
	spec := func(mount, attrs string) string {
		return "mount: " + mount + "\nmods:\n  - uuid: m\n    type: labstor.lru\n" + attrs +
			"  - uuid: drv\n    type: labstor.kernel_driver\n    attrs:\n      device: nvme0\n"
	}
	if _, err := rt.MountSpec(spec("blk::/a", "    attrs:\n      capacity_mb: 8\n")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Unmount("blk::/a"); err != nil {
		t.Fatal(err)
	}
	_, err := rt.MountSpec(spec("blk::/b", "    attrs:\n      capacity_mb: 16\n"))
	if err == nil || !strings.Contains(err.Error(), `vertex "m"`) || !strings.Contains(err.Error(), `"capacity_mb"`) {
		t.Fatalf("redefined capacity_mb: err = %v, want one naming vertex m and capacity_mb", err)
	}
	if _, err := rt.MountSpec(strings.Replace(spec("blk::/c", ""), "labstor.lru", "labstor.noop", 1)); err == nil || !strings.Contains(err.Error(), `vertex "m" is a labstor.lru instance`) {
		t.Fatalf("redefined type: err = %v, want one naming vertex m", err)
	}
	for mount, attrs := range map[string]string{
		"blk::/d": "    attrs:\n      capacity_mb: 8\n", // the same value
		"blk::/e": "",                                   // left out
	} {
		if _, err := rt.MountSpec(spec(mount, attrs)); err != nil {
			t.Fatalf("%s: %v", mount, err)
		}
	}
}

// TestFailedMountLeavesNothingBehind: a mount that fails part way through
// registers none of its vertices, so a corrected retry may set the
// attributes the failed one did.
func TestFailedMountLeavesNothingBehind(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1})
	rt.AddDevice(device.New("nvme0", device.NVMe, 32<<20))
	spec := func(capacity, drvAttrs string) string {
		return "mount: blk::/a\nmods:\n  - uuid: m\n    type: labstor.lru\n    attrs:\n      capacity_mb: " + capacity +
			"\n  - uuid: drv\n    type: labstor.kernel_driver\n    attrs:\n      device: nvme0\n" + drvAttrs
	}
	_, err := rt.MountSpec(spec("8", "      bogus: 1\n"))
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("mount with an unread attribute: err = %v, want one naming bogus", err)
	}
	for _, uuid := range []string{"m", "drv"} {
		if _, err := rt.Registry.Get(uuid); err == nil {
			t.Errorf("vertex %q is registered after its mount failed", uuid)
		}
	}
	if _, err := rt.MountSpec(spec("16", "")); err != nil {
		t.Fatalf("corrected retry: %v", err)
	}
}
