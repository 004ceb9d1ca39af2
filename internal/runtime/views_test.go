package runtime_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
	"labstor/internal/telemetry"
)

// TestCompletionViewsAgree drives ok and errored requests at two stacks with
// every request sampled. Once the workers are idle, every view of the one
// completion record must agree: the stack.* counters, the attribution
// tables, the runtime's stage counters and the error ring.
func TestCompletionViewsAgree(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 2, PerfSampleEvery: 1})
	stacks := []struct {
		mount    string
		ok, errs int
	}{{"fs::/a", 40, 15}, {"fs::/b", 25, 10}}
	for i, s := range stacks {
		dev := fmt.Sprintf("dev%d", i)
		rt.AddDevice(device.New(dev, device.NVMe, 64<<20))
		if _, err := rt.MountSpec(fmt.Sprintf(`
mount: %s
mods:
  - uuid: fs%d
    type: labstor.labfs
    attrs:
      device: %s
      log_mb: 4
  - uuid: drv%d
    type: labstor.kernel_driver
    attrs:
      device: %s
`, s.mount, i, dev, i, dev)); err != nil {
			t.Fatal(err)
		}
	}
	rt.Start()
	t.Cleanup(rt.Shutdown)

	var mu sync.Mutex
	errored := map[uint64]int{} // errored request ID -> times seen in the error ring
	var wg sync.WaitGroup
	for i, s := range stacks {
		cli := rt.Connect(ipc.Credentials{PID: 1 + i, UID: 1000, GID: 1000})
		wg.Add(1)
		go func(mount string, ok, errs int) {
			defer wg.Done()
			buf := make([]byte, 512)
			for j, left := 0, errs; j < ok+errs; j++ {
				req := core.NewRequest(core.OpWrite)
				req.Path, req.Flags = "f", core.FlagCreate
				if j%3 == 2 && left > 0 { // interleave reads of a missing file
					req = core.NewRequest(core.OpRead)
					req.Path = "missing"
					left--
				}
				req.Offset, req.Size, req.Data = int64(j)*512, len(buf), buf
				if err := cli.Submit(mount, req); err != nil {
					mu.Lock()
					errored[req.ID] = 0
					mu.Unlock()
				}
			}
		}(s.mount, s.ok, s.errs)
	}
	wg.Wait()

	want := map[string]telemetry.StackAttribution{}
	wantErrs := 0
	for _, s := range stacks {
		want[s.mount] = telemetry.StackAttribution{Requests: int64(s.ok + s.errs), Errors: int64(s.errs)}
		wantErrs += s.errs
	}
	var attr []telemetry.StackAttribution
	deadline := time.Now().Add(5 * time.Second)
	for {
		attr = rt.Attribution()
		agree := len(attr) == len(stacks)
		for _, sa := range attr {
			agree = agree && sa.Requests == want[sa.Stack].Requests
		}
		if agree {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("attribution never reached the submitted counts: %+v", attr)
		}
		time.Sleep(time.Millisecond)
	}

	ctr := rt.Metrics().Snapshot().Counters
	stageOps := map[string]int64{}
	for _, sa := range attr {
		w := want[sa.Stack]
		reqs, errs := ctr["stack.requests;stack="+sa.Stack], ctr["stack.errors;stack="+sa.Stack]
		if reqs != w.Requests || errs != w.Errors || sa.Errors != w.Errors {
			t.Errorf("%s: stack.requests %d, stack.errors %d, attribution %d/%d; submitted %d/%d",
				sa.Stack, reqs, errs, sa.Requests, sa.Errors, w.Requests, w.Errors)
		}
		for _, st := range sa.Stages {
			if st.Stage != telemetry.QueueWaitStage {
				stageOps[st.Stage] += st.Count
			}
		}
	}
	perf := rt.PerfCounters()
	if len(perf) != len(stageOps) || len(perf) == 0 {
		t.Errorf("PerfCounters has %d stages, attribution %d", len(perf), len(stageOps))
	}
	for _, pc := range perf {
		if pc.Ops != stageOps[pc.Stage] {
			t.Errorf("stage %s: PerfCounters %d ops, attribution %d", pc.Stage, pc.Ops, stageOps[pc.Stage])
		}
	}

	if len(errored) != wantErrs {
		t.Fatalf("%d requests failed, want %d", len(errored), wantErrs)
	}
	for _, tr := range rt.Tracer().RecentErrors() {
		if _, ok := errored[tr.ReqID]; !ok {
			t.Fatalf("error ring holds request %d, which did not fail", tr.ReqID)
		}
		errored[tr.ReqID]++
	}
	for id, n := range errored {
		if n != 1 {
			t.Errorf("request %d is in the error ring %d times, want once", id, n)
		}
	}
}
