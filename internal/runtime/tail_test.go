package runtime_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	_ "labstor/internal/mods/allmods"
	"labstor/internal/runtime"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

// bootFS boots a single-worker runtime with an fs stack and the given extra
// options applied (fields left zero in opts keep their test defaults).
func bootFS(t *testing.T, opts runtime.Options) (*runtime.Runtime, *runtime.Client) {
	t.Helper()
	if opts.MaxWorkers == 0 {
		opts.MaxWorkers = 1
	}
	rt := runtime.New(opts)
	rt.AddDevice(device.New("dev0", device.NVMe, 256<<20))
	if _, err := rt.MountSpec(`
mount: fs::/s
mods:
  - uuid: fs
    type: labstor.labfs
    attrs:
      device: dev0
      log_mb: 8
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

// TestTailRetentionCatchesSlowRequests constructs the skewed workload of the
// acceptance criteria: a stream of small writes with a rare large write mixed
// in, under a sampling period so long that 1-in-N sampling provably never
// picks a large write. The tail ring must still hold the slowest requests.
func TestTailRetentionCatchesSlowRequests(t *testing.T) {
	rt, cli := bootFS(t, runtime.Options{
		PerfSampleEvery: 1 << 20, // only the worker's request 0 is ever sampled
	})

	small := make([]byte, 512)
	big := make([]byte, 256<<10)
	var bigMin vtime.Duration // smallest latency among the large writes
	write := func(i int, data []byte) vtime.Duration {
		req := core.NewRequest(core.OpWrite)
		req.Path = "f"
		req.Flags = core.FlagCreate
		req.Offset = int64(i) * int64(len(big))
		req.Size = len(data)
		req.Data = data
		if err := cli.Submit("fs::/s", req); err != nil {
			t.Fatal(err)
		}
		return req.Clock.Sub(req.Arrival)
	}

	// Warmup phase: the estimator seeds on small-write latency.
	for i := 0; i < 100; i++ {
		write(i, small)
	}
	// Skewed phase: 1 large write per 50 small ones.
	for i := 100; i < 2000; i++ {
		if i%50 == 0 {
			lat := write(i, big)
			if bigMin == 0 || lat < bigMin {
				bigMin = lat
			}
		} else {
			write(i, small)
		}
	}
	if bigMin == 0 {
		t.Fatal("no large writes issued")
	}

	// 1-in-N sampling missed every large write.
	for _, tr := range rt.Traces() {
		if tr.Latency() >= bigMin {
			t.Fatalf("sampled ring holds a large write (lat %v) — workload not skewed enough to prove the point", tr.Latency())
		}
	}

	// The tail ring caught them.
	tail := rt.TailTraces()
	if len(tail) == 0 {
		t.Fatal("tail ring empty under a heavy-tailed workload")
	}
	caught := 0
	for _, tr := range tail {
		if tr.Latency() >= bigMin {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("tail ring holds %d traces but none at large-write latency (>= %v)", len(tail), bigMin)
	}
	// Retention is accounted.
	if got := rt.Metrics().Snapshot().Counters["runtime.tail_retained"]; got == 0 {
		t.Fatal("runtime.tail_retained counter untouched")
	}
	// Tail traces are unsampled: no span anatomy, but the coarse fields are
	// populated for the Chrome-export synthesis.
	for _, tr := range tail {
		if tr.Stack != "fs::/s" || tr.End <= tr.Arrival {
			t.Fatalf("malformed tail trace %+v", tr)
		}
	}
}

// TestSampledTailTraceBuiltOnce pins the single completion record: a
// request that is both sampled and a tail outlier has its trace built once,
// so the sampled ring and the tail ring share one span array.
func TestSampledTailTraceBuiltOnce(t *testing.T) {
	rt, cli := bootFS(t, runtime.Options{PerfSampleEvery: 1})
	small, big := make([]byte, 512), make([]byte, 256<<10)
	for i := 0; i < 400; i++ {
		data := small
		if i >= 100 && i%50 == 0 {
			data = big
		}
		req := core.NewRequest(core.OpWrite)
		req.Path, req.Flags = "f", core.FlagCreate
		req.Offset, req.Size, req.Data = int64(i)*int64(len(big)), len(data), data
		if err := cli.Submit("fs::/s", req); err != nil {
			t.Fatal(err)
		}
	}
	sampled := map[uint64]telemetry.Trace{}
	for _, tr := range rt.Traces() {
		sampled[tr.ReqID] = tr
	}
	both := 0
	for _, tail := range rt.TailTraces() {
		s, ok := sampled[tail.ReqID]
		if !ok {
			continue
		}
		both++
		if len(s.Spans) == 0 || &s.Spans[0] != &tail.Spans[0] {
			t.Fatalf("request %d: the sampled and tail rings hold two builds of its trace", tail.ReqID)
		}
	}
	if both == 0 {
		t.Fatal("no request was both sampled and a tail outlier")
	}
}

// TestAttributionShares drives a real workload and checks the acceptance
// criterion: per-stack attribution shares sum to ~100%, for both the
// always-on coarse split and the sampled per-stage table.
func TestAttributionShares(t *testing.T) {
	rt, cli := bootFS(t, runtime.Options{PerfSampleEvery: 4})
	submitOps(t, cli, "fs::/s", core.OpWrite, "f", 400, true)
	submitOps(t, cli, "fs::/s", core.OpRead, "f", 100, false)

	// Workers publish attribution deltas on their first idle scan after the
	// burst; give that a moment.
	var attr []telemetry.StackAttribution
	deadline := time.Now().Add(2 * time.Second)
	for {
		attr = rt.Attribution()
		if len(attr) == 1 && attr[0].Requests == 500 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("attribution did not converge: %+v", attr)
		}
		time.Sleep(time.Millisecond)
	}

	sa := attr[0]
	if sa.Stack != "fs::/s" || sa.Errors != 0 {
		t.Fatalf("attribution = %+v", sa)
	}
	if sum := sa.QueueWaitPct + sa.CPUPct + sa.DevicePct; math.Abs(sum-100) > 0.01 {
		t.Fatalf("coarse shares sum to %.3f%%, want 100", sum)
	}
	if sa.Sampled == 0 {
		t.Fatal("no sampled requests folded")
	}
	var opReqs int64
	seenOps := map[string]bool{}
	for _, op := range sa.Ops {
		opReqs += op.Requests
		seenOps[op.Op] = true
	}
	if opReqs != 500 || !seenOps["write"] || !seenOps["read"] {
		t.Fatalf("op rows = %+v", sa.Ops)
	}
	if len(sa.Stages) == 0 {
		t.Fatal("no stage rows from sampled spans")
	}
	var stageSum float64
	hasQW := false
	for _, st := range sa.Stages {
		stageSum += st.SharePct
		if st.Stage == telemetry.QueueWaitStage {
			hasQW = true
		}
	}
	if math.Abs(stageSum-100) > 0.5 {
		t.Fatalf("stage shares sum to %.3f%%, want ~100 (stages %+v)", stageSum, sa.Stages)
	}
	if !hasQW {
		t.Fatal("stage table missing the queue_wait pseudo-stage")
	}

	// The snapshot tree and text rendering carry the table.
	snap := rt.Snapshot()
	if len(snap.Attribution) != 1 {
		t.Fatalf("snapshot attribution = %+v", snap.Attribution)
	}
	if text := snap.String(); !strings.Contains(text, "== attribution ==") {
		t.Fatal("snapshot text missing the attribution section")
	}
}

// TestBreachHookFires pins the OnSLOBreach fan-out: a breach transition
// invokes the hook exactly once (not once per breaching evaluation).
func TestBreachHookFires(t *testing.T) {
	rt, cli := bootObsRuntime(t)
	fired := make(chan runtime.SLOStatus, 4)
	rt.OnSLOBreach(func(st runtime.SLOStatus) { fired <- st })

	submitOps(t, cli, "dummy::/slow", core.OpWrite, "x", 10, true)
	rt.EvaluateSLOs()
	select {
	case st := <-fired:
		if st.Stack != "dummy::/slow" || st.OK {
			t.Fatalf("hook got %+v", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("breach hook never fired")
	}
	// A sustained breach is one transition: further evaluations must not
	// re-fire the hook.
	submitOps(t, cli, "dummy::/slow", core.OpWrite, "x", 10, true)
	rt.EvaluateSLOs()
	select {
	case <-fired:
		t.Fatal("hook fired again without a recovery in between")
	case <-time.After(50 * time.Millisecond):
	}
}
