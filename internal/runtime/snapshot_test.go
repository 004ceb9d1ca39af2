package runtime_test

import (
	"encoding/json"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
)

func bootSnapshotRuntime(t *testing.T, sampleEvery int) (*runtime.Runtime, *runtime.Client) {
	t.Helper()
	rt := runtime.New(runtime.Options{MaxWorkers: 2, PerfSampleEvery: sampleEvery})
	rt.AddDevice(device.New("dev0", device.NVMe, 64<<20))
	if _, err := rt.MountSpec(`
mount: fs::/s
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
	t.Cleanup(rt.Shutdown)
	return rt, rt.Connect(ipc.Credentials{PID: 1, UID: 1000, GID: 1000})
}

func submitWrites(t *testing.T, cli *runtime.Client, n int) {
	t.Helper()
	buf := make([]byte, 4096)
	for i := 0; i < n; i++ {
		req := core.NewRequest(core.OpWrite)
		req.Path = "f"
		req.Flags = core.FlagCreate
		req.Offset = int64(i) * 4096
		req.Size = len(buf)
		req.Data = buf
		if err := cli.Submit("fs::/s", req); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotStructure(t *testing.T) {
	rt, cli := bootSnapshotRuntime(t, 1)
	submitWrites(t, cli, 50)
	snap := rt.Snapshot()

	// Per-worker: every worker reports poll activity; the ones that
	// processed requests report virtual busy time.
	if len(snap.Workers) == 0 {
		t.Fatal("no workers in snapshot")
	}
	var processed int64
	for _, w := range snap.Workers {
		processed += w.Processed
		if w.Polls <= 0 {
			t.Fatalf("worker %d has no polls: %+v", w.ID, w)
		}
		if r := w.IdleRatio(); r < 0 || r > 1 {
			t.Fatalf("worker %d empty-scan ratio %v out of [0,1]", w.ID, r)
		}
		if w.SpinWindow < 0 || w.SpinWindow > runtime.SpinMax {
			t.Fatalf("worker %d spin window %v out of [0, %v]", w.ID, w.SpinWindow, runtime.SpinMax)
		}
	}
	if processed != 50 {
		t.Fatalf("workers processed %d requests, want 50", processed)
	}

	// Per-queue: the client's queue pair must show the traffic and a
	// worker assignment.
	if len(snap.Queues) == 0 {
		t.Fatal("no queues in snapshot")
	}
	var enq, done int64
	assigned := false
	for _, q := range snap.Queues {
		enq += q.SQ.Enqueued
		done += q.CQ.Enqueued
		if len(q.Workers) > 0 {
			assigned = true
		}
	}
	if enq != 50 || done != 50 {
		t.Fatalf("queue traffic enq=%d done=%d, want 50/50", enq, done)
	}
	if !assigned {
		t.Fatal("no queue reports an assigned worker")
	}

	// Per-stage: sampling at 1-in-1 must capture the pipeline stages.
	stages := map[string]bool{}
	for _, c := range snap.Stages {
		stages[c.Stage] = true
	}
	for _, want := range []string{"ipc", "sched", "driver", "io", "fs_meta"} {
		if !stages[want] {
			t.Fatalf("stage %q missing from snapshot (have %v)", want, snap.Stages)
		}
	}

	// Registry: client-side and LabMod op counters share the tree.
	if got := snap.Metrics.Counters["client.submitted"]; got != 50 {
		t.Fatalf("client.submitted = %d, want 50", got)
	}
	if got := snap.Metrics.Counters["labfs.fs.write"]; got != 50 {
		t.Fatalf("labfs.fs.write = %d, want 50", got)
	}
	if got := snap.Metrics.Counters["runtime.sampled_requests"]; got != 50 {
		t.Fatalf("runtime.sampled_requests = %d, want 50", got)
	}
	h, ok := snap.Metrics.Histograms["request.latency_us"]
	if !ok || h.Count != 50 {
		t.Fatalf("request.latency_us histogram = %+v, want count 50", h)
	}

	// Traces: retained, with per-stage spans and sane virtual timing.
	if len(snap.Traces) == 0 {
		t.Fatal("no traces retained")
	}
	tr := snap.Traces[len(snap.Traces)-1]
	if tr.Stack != "fs::/s" || tr.Op != "write" {
		t.Fatalf("trace = %+v, want write on fs::/s", tr)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	if tr.Latency() <= 0 || tr.QueueWait < 0 {
		t.Fatalf("trace timing lat=%v wait=%v", tr.Latency(), tr.QueueWait)
	}
}

func TestSnapshotJSONAndText(t *testing.T) {
	rt, cli := bootSnapshotRuntime(t, 1)
	submitWrites(t, cli, 10)
	snap := rt.Snapshot()

	raw, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"workers", "queues", "stages", "orchestrator", "metrics", "traces"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("JSON snapshot missing %q", key)
		}
	}

	text := snap.String()
	for _, want := range []string{"== workers ==", "== queues ==", "== stages (sampled) ==", "== counters =="} {
		if !containsStr(text, want) {
			t.Fatalf("text snapshot missing section %q", want)
		}
	}
}

func TestSnapshotSamplingDisabled(t *testing.T) {
	rt, cli := bootSnapshotRuntime(t, runtime.PerfSamplingDisabled)
	submitWrites(t, cli, 20)
	snap := rt.Snapshot()

	if len(snap.Stages) != 0 {
		t.Fatalf("stages sampled while disabled: %v", snap.Stages)
	}
	if len(snap.Traces) != 0 {
		t.Fatalf("traces captured while disabled: %d", len(snap.Traces))
	}
	if got := snap.Metrics.Counters["runtime.sampled_requests"]; got != 0 {
		t.Fatalf("runtime.sampled_requests = %d, want 0", got)
	}
	if _, ok := snap.Metrics.Histograms["request.latency_us"]; ok {
		t.Fatal("latency histogram populated while sampling disabled")
	}
	// Structural metrics are still collected: queues, workers, counters.
	if got := snap.Metrics.Counters["client.submitted"]; got != 20 {
		t.Fatalf("client.submitted = %d, want 20", got)
	}
	var enq int64
	for _, q := range snap.Queues {
		enq += q.SQ.Enqueued
	}
	if enq != 20 {
		t.Fatalf("queue enqueues = %d, want 20", enq)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
