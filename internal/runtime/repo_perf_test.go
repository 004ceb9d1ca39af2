package runtime_test

import (
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
)

// untrustedMod is a module type provided by an untrusted repo.
type untrustedMod struct{ core.Base }

func (u *untrustedMod) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: "thirdparty.mod", Consumes: core.APIAny, Produces: core.APIAny}
}
func (u *untrustedMod) Process(e *core.Exec, r *core.Request) error { return nil }

func TestRuntimeRepoLifecycle(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1, MaxReposPerUser: 2})
	rt.Start()
	defer rt.Shutdown()

	repo := core.NewRepo("thirdparty", 1234, false, map[string]core.Factory{
		"thirdparty.mod": func() core.Module { return &untrustedMod{} },
	})
	if err := rt.MountRepo(repo); err != nil {
		t.Fatal(err)
	}
	if got := rt.Repos(); len(got) != 1 || got[0] != "thirdparty" {
		t.Fatalf("repos %v", got)
	}

	// An untrusted type cannot run inside the Runtime (async stack)...
	_, err := rt.Mount(core.NewStack("x::/async", core.Rules{ExecMode: core.ExecAsync}, []core.Vertex{
		{UUID: "u1", Type: "thirdparty.mod"},
	}))
	if err == nil {
		t.Fatal("untrusted type mounted into the Runtime address space")
	}
	// ... but is allowed in a client-side (sync) stack.
	if _, err := rt.Mount(core.NewStack("x::/sync", core.Rules{ExecMode: core.ExecSync}, []core.Vertex{
		{UUID: "u2", Type: "thirdparty.mod"},
	})); err != nil {
		t.Fatal(err)
	}
	cli := rt.Connect(ipc.Credentials{PID: 9})
	req := core.NewRequest(core.OpMessage)
	if err := cli.Submit("x::/sync", req); err != nil {
		t.Fatal(err)
	}

	if err := rt.UnmountRepo("thirdparty", 1234); err != nil {
		t.Fatal(err)
	}
	// The type is gone for NEW instantiations.
	if _, err := rt.Mount(core.NewStack("x::/again", core.Rules{ExecMode: core.ExecSync}, []core.Vertex{
		{UUID: "u3", Type: "thirdparty.mod"},
	})); err == nil {
		t.Fatal("unmounted repo's type still instantiable")
	}
}

func TestRuntimePerfCounters(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1, PerfSampleEvery: 1})
	rt.AddDevice(device.New("dev0", device.NVMe, 64<<20))
	if _, err := rt.MountSpec(`
mount: fs::/p
mods:
  - uuid: fs
    type: labstor.labfs
    attrs:
      device: dev0
      log_mb: 4
  - uuid: sched
    type: labstor.noop
    attrs:
      device: dev0
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: dev0
`); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Shutdown()
	cli := rt.Connect(ipc.Credentials{PID: 1, UID: 1000, GID: 1000})
	buf := make([]byte, 4096)
	for i := 0; i < 50; i++ {
		req := core.NewRequest(core.OpWrite)
		req.Path = "f"
		req.Flags = core.FlagCreate
		req.Offset = int64(i) * 4096
		req.Size = len(buf)
		req.Data = buf
		if err := cli.Submit("fs::/p", req); err != nil {
			t.Fatal(err)
		}
	}
	counters := rt.PerfCounters()
	if len(counters) == 0 {
		t.Fatal("no performance counters sampled")
	}
	byStage := map[string]runtime.PerfCounter{}
	for _, c := range counters {
		byStage[c.Stage] = c
	}
	for _, want := range []string{"ipc", "sched", "driver", "io", "fs_meta"} {
		c, ok := byStage[want]
		if !ok {
			t.Fatalf("stage %q not sampled (have %v)", want, counters)
		}
		if c.Ops <= 0 || c.Mean <= 0 {
			t.Fatalf("stage %q empty: %+v", want, c)
		}
	}
	// The device stage dominates, as in the anatomy.
	if byStage["io"].Mean <= byStage["sched"].Mean {
		t.Fatal("io mean should dominate scheduler mean")
	}
}

func TestPerfSamplingDisabled(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1, PerfSampleEvery: -1})
	rt.Mount(core.NewStack("m::/d", core.Rules{}, []core.Vertex{{UUID: "d", Type: "labstor.dummy"}}))
	rt.Start()
	defer rt.Shutdown()
	cli := rt.Connect(ipc.Credentials{PID: 1})
	for i := 0; i < 10; i++ {
		cli.Submit("m::/d", core.NewRequest(core.OpMessage))
	}
	if len(rt.PerfCounters()) != 0 {
		t.Fatal("sampling ran while disabled")
	}
}
