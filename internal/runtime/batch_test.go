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
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 256, Batch: batch})
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
// the per-request completion clocks plus the final client clock.
func runBurst(t *testing.T, cli *runtime.Client, rt *runtime.Runtime, n int) ([]vtime.Time, vtime.Time) {
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
	clocks := make([]vtime.Time, n)
	for i, req := range reqs {
		if req.Err != nil {
			t.Fatalf("req %d: %v", i, req.Err)
		}
		clocks[i] = req.Clock
	}
	return clocks, cli.Clock()
}

// TestBatchEquivalence checks the tentpole's semantic invariant: batching
// amortizes host-side overhead only — modeled (virtual-time) results are
// identical at any batch size. The same 64-request burst on a single worker
// must produce identical per-request completion clocks at batch 1 (the
// original single-request poll path) and batch 8 (vectored drain).
func TestBatchEquivalence(t *testing.T) {
	const n = 64
	rt1, cli1 := newBatchRig(t, 1)
	c1, final1 := runBurst(t, cli1, rt1, n)
	rt8, cli8 := newBatchRig(t, 8)
	c8, final8 := runBurst(t, cli8, rt8, n)
	for i := range c1 {
		if c1[i] != c8[i] {
			t.Fatalf("req %d completion clock differs: batch1=%v batch8=%v", i, c1[i], c8[i])
		}
	}
	if final1 != final8 {
		t.Fatalf("final client clock differs: batch1=%v batch8=%v", final1, final8)
	}
	if final1 <= 0 {
		t.Fatal("client clock did not advance")
	}
	// The batched runtime must actually have processed all requests.
	if got := rt8.Stats()[0].Processed; got != n {
		t.Fatalf("batch8 worker processed %d, want %d", got, n)
	}
}

// TestBatchDefaultsToSingle checks the knob's defaults: zero/negative batch
// selects the single-request path, and batch is clamped to the queue depth.
func TestBatchDefaultsToSingle(t *testing.T) {
	rt0, cli0 := newBatchRig(t, 0)
	c0, _ := runBurst(t, cli0, rt0, 16)
	rtBig, cliBig := newBatchRig(t, 1<<20) // clamped to QueueDepth
	cBig, _ := runBurst(t, cliBig, rtBig, 16)
	for i := range c0 {
		if c0[i] != cBig[i] {
			t.Fatalf("req %d completion clock differs under clamping: %v vs %v", i, c0[i], cBig[i])
		}
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
		if err := cli.SubmitStackAsync(stack, reqs[i]); err != nil {
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
			reqs[i] = core.AcquireRequest(core.OpMessage)
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
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 8, Batch: 4})
	rt.AddDevice(device.New("dev0", device.NVMe, 32<<20))
	if _, err := rt.Mount(core.NewStack("msg::/d", core.Rules{}, []core.Vertex{
		{UUID: "dum", Type: dummy.Type},
	})); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Shutdown)
	cli := rt.Connect(ipc.Credentials{PID: 1, UID: 0, GID: 0})
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
