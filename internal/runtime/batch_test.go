package runtime_test

import (
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/mods/dummy"
	"labstor/internal/runtime"
	"labstor/internal/vtime"
)

// newBatchRig builds a single-worker dummy rig with a configurable drain
// batch so modeled results are deterministic (one worker, FIFO ring).
func newBatchRig(t *testing.T, batch int) (*runtime.Runtime, *runtime.Client) {
	t.Helper()
	return newDepthRig(t, 256, batch)
}

// newDepthRig is newBatchRig with the queue depth configurable too, for
// tests that overflow the rings.
func newDepthRig(t *testing.T, depth, batch int) (*runtime.Runtime, *runtime.Client) {
	t.Helper()
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: depth, Batch: batch})
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

// runBurst submits n async requests in one batch, reaps them, and returns
// them completed, plus the final client clock.
func runBurst(t *testing.T, cli *runtime.Client, rt *runtime.Runtime, n int) ([]*core.Request, vtime.Time) {
	t.Helper()
	stack, ok := rt.Namespace.Lookup("msg::/d")
	if !ok {
		t.Fatal("stack not mounted")
	}
	reqs := make([]*core.Request, n)
	for i := range reqs {
		reqs[i] = core.NewRequest(core.OpMessage)
	}
	if err := cli.SubmitBatch(stack, reqs); err != nil {
		t.Fatal(err)
	}
	if err := cli.WaitAll(reqs); err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		if req.Err != nil {
			t.Fatalf("req %d: %v", i, req.Err)
		}
	}
	return reqs, cli.Clock()
}

// TestBatchEquivalence checks that the drain width is not a semantic knob:
// it amortizes host-side overhead only, so modeled (virtual-time) results
// are identical at any width. The same 64-request burst on a single worker
// must produce identical per-request completion clocks and CPU charges, in
// the same (submission) order, whether the worker drains one request per
// scan, a few, or the whole queue.
func TestBatchEquivalence(t *testing.T) {
	const n = 64
	var ref []*core.Request
	var refFinal vtime.Time
	for _, width := range []int{1, 2, 16, 256} { // 256 = newBatchRig's queue depth
		rt, cli := newBatchRig(t, width)
		if got := rt.Options().Batch; got != width {
			t.Fatalf("width %d: runtime drains %d per scan", width, got)
		}
		reqs, final := runBurst(t, cli, rt, n)
		if got := rt.Stats()[0].Processed; got != n {
			t.Fatalf("width %d: worker processed %d, want %d", width, got, n)
		}
		for i := 1; i < n; i++ {
			if reqs[i].Clock <= reqs[i-1].Clock {
				t.Fatalf("width %d: req %d completed at %v, not after req %d at %v", width, i, reqs[i].Clock, i-1, reqs[i-1].Clock)
			}
		}
		if ref == nil {
			if final <= 0 {
				t.Fatal("client clock did not advance")
			}
			ref, refFinal = reqs, final
			continue
		}
		for i := range reqs {
			if reqs[i].Clock != ref[i].Clock || reqs[i].CPUTime != ref[i].CPUTime {
				t.Fatalf("req %d differs at width %d: clock %v cpu %v, width 1: clock %v cpu %v",
					i, width, reqs[i].Clock, reqs[i].CPUTime, ref[i].Clock, ref[i].CPUTime)
			}
		}
		if final != refFinal {
			t.Fatalf("final client clock differs at width %d: %v, width 1: %v", width, final, refFinal)
		}
	}
}

// TestBatchDefaultsToSingle checks the knob's defaults: a zero or negative
// batch means a drain width of one, and the width is clamped to the queue
// depth. The batch-size histogram shows the width in use.
func TestBatchDefaultsToSingle(t *testing.T) {
	for _, tc := range []struct{ batch, width int }{
		{0, 1}, {-3, 1}, {1 << 20, 256}, // 256 = newBatchRig's queue depth
	} {
		rt, cli := newBatchRig(t, tc.batch)
		if got := rt.Options().Batch; got != tc.width {
			t.Fatalf("Batch %d: drain width %d, want %d", tc.batch, got, tc.width)
		}
		runBurst(t, cli, rt, 16)
		h := rt.Metrics().Snapshot().Histograms["worker.batch_size"]
		if h.Count == 0 || h.Max > float64(tc.width) {
			t.Fatalf("Batch %d: worker.batch_size %+v, want drains of at most %d", tc.batch, h, tc.width)
		}
		if tc.width == 1 && h.Count != 16 {
			t.Fatalf("Batch %d: %d drains for 16 requests at width 1", tc.batch, h.Count)
		}
	}
}

// TestInflightDrainsPastCompletionRing: a window several times the queue
// depth overflows the completion ring, so most completions are signalled
// directly; every one of them must still leave the in-flight count, or the
// dynamic orchestrator never sees the queue idle.
func TestInflightDrainsPastCompletionRing(t *testing.T) {
	rt, cli := newDepthRig(t, 8, 1)
	runBurst(t, cli, rt, 64)
	if qp := cli.QueuePair(); qp.Inflight() != 0 || qp.SQLen() != 0 {
		t.Fatalf("after WaitAll: inflight=%d sqlen=%d, want 0 and 0", qp.Inflight(), qp.SQLen())
	}
}

// TestWaitAllDrainsAllOnError exercises the WaitAll fix: a failed request
// must not short-circuit the reap. Every request — before and after the
// failing one — must be drained and the client clock advanced past all
// completions; the first error is reported after the drain.
func TestWaitAllDrainsAllOnError(t *testing.T) {
	_, cli := newTestRuntime(t, "async")
	stack, _, ok := cli.Resolve("fs::/data")
	if !ok {
		t.Fatal("no stack at fs::/data")
	}
	reqs := make([]*core.Request, 8)
	for i := range reqs {
		if i == 2 {
			// Reading a file that was never created fails inside the stack.
			reqs[i] = core.NewRequest(core.OpRead)
			reqs[i].Path = "does-not-exist.txt"
			reqs[i].Size = 64
			reqs[i].Data = make([]byte, 64)
		} else {
			reqs[i] = core.NewRequest(core.OpCreate)
			reqs[i].Path = "f" + string(rune('a'+i)) + ".txt"
			reqs[i].Mode = 0644
		}
		if err := cli.SubmitBatch(stack, reqs[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	err := cli.WaitAll(reqs)
	if err == nil {
		t.Fatal("WaitAll returned nil despite a failed request")
	}
	if reqs[2].Err == nil || err != reqs[2].Err {
		t.Fatalf("WaitAll error %v, want the failing request's error %v", err, reqs[2].Err)
	}
	for i, req := range reqs {
		if !req.Done() {
			t.Fatalf("req %d not reaped after WaitAll", i)
		}
		if i != 2 && req.Err != nil {
			t.Fatalf("req %d unexpectedly failed: %v", i, req.Err)
		}
		if cli.Clock() < req.Clock {
			t.Fatalf("client clock %v behind req %d completion %v", cli.Clock(), i, req.Clock)
		}
	}
}

// TestSubmitBatchPooledRoundTrip drives pooled requests through the batched
// submit/reap path and returns them to the pool: the full recycled hot path.
func TestSubmitBatchPooledRoundTrip(t *testing.T) {
	rt, cli := newBatchRig(t, 8)
	stack, _ := rt.Namespace.Lookup("msg::/d")
	before := core.RequestPoolStats()
	for round := 0; round < 4; round++ {
		reqs := make([]*core.Request, 16)
		for i := range reqs {
			reqs[i] = core.NewRequest(core.OpMessage)
		}
		if err := cli.SubmitBatch(stack, reqs); err != nil {
			t.Fatal(err)
		}
		if err := cli.WaitAll(reqs); err != nil {
			t.Fatal(err)
		}
		for _, req := range reqs {
			if req.Err != nil {
				t.Fatal(req.Err)
			}
			req.Release()
		}
	}
	m, _ := rt.Registry.Get("dum")
	if got := m.(*dummy.Dummy).Messages(); got != 64 {
		t.Fatalf("messages %d, want 64", got)
	}
	after := core.RequestPoolStats()
	if after.Gets-before.Gets != 64 {
		t.Fatalf("pool gets delta %d, want 64", after.Gets-before.Gets)
	}
	if after.Releases-before.Releases != 64 {
		t.Fatalf("pool releases delta %d, want 64", after.Releases-before.Releases)
	}
}

// TestSubmitBatchQueueFull drives a batch several times the SQ ring depth
// through a tiny queue: SubmitBatch must spin on the full ring (counting
// client.sq_full_retries) rather than drop or error, and every request must
// still complete.
func TestSubmitBatchQueueFull(t *testing.T) {
	rt, cli := newDepthRig(t, 8, 4)
	stack, _ := rt.Namespace.Lookup("msg::/d")

	const n = 512 // 64x the ring depth
	reqs := make([]*core.Request, n)
	for i := range reqs {
		reqs[i] = core.NewRequest(core.OpMessage)
	}
	if err := cli.SubmitBatch(stack, reqs); err != nil {
		t.Fatalf("SubmitBatch over a full ring: %v", err)
	}
	if err := cli.WaitAll(reqs); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	for i, req := range reqs {
		if req.Err != nil {
			t.Fatalf("req %d: %v", i, req.Err)
		}
	}
	snap := rt.Metrics().Snapshot()
	if snap.Counters["client.sq_full_retries"] == 0 {
		t.Fatal("no sq_full_retries recorded pushing 512 requests through an 8-deep ring")
	}
	if got := snap.Counters["client.submitted"]; got != n {
		t.Fatalf("client.submitted = %d, want %d", got, n)
	}
}

// TestSubmitBatchStoppedRuntime pins the shutdown contract the serve
// completer relies on: SubmitBatch against a stopped runtime returns
// ErrStopped, and WaitAll on the never-submitted requests also returns
// ErrStopped immediately instead of hanging.
func TestSubmitBatchStoppedRuntime(t *testing.T) {
	// No t.Cleanup(Shutdown) here: the test owns the (single) shutdown.
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 256, Batch: 4})
	rt.AddDevice(device.New("dev0", device.NVMe, 32<<20))
	if _, err := rt.Mount(core.NewStack("msg::/d", core.Rules{}, []core.Vertex{
		{UUID: "dum", Type: dummy.Type},
	})); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	cli := rt.Connect(ipc.Credentials{PID: 1, UID: 0, GID: 0})
	stack, _ := rt.Namespace.Lookup("msg::/d")
	rt.Shutdown()

	reqs := make([]*core.Request, 4)
	for i := range reqs {
		reqs[i] = core.NewRequest(core.OpMessage)
	}
	if err := cli.SubmitBatch(stack, reqs); err != runtime.ErrStopped {
		t.Fatalf("SubmitBatch on stopped runtime = %v, want ErrStopped", err)
	}
	done := make(chan error, 1)
	go func() { done <- cli.WaitAll(reqs) }()
	select {
	case err := <-done:
		if err != runtime.ErrStopped {
			t.Fatalf("WaitAll on stopped runtime = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitAll hung on never-submitted requests after shutdown")
	}
}
