package runtime

import (
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/ipc"
)

// TestStreamedCompletion drains a batch of four in one scan and holds its
// last request at the gate: the three before it must read done while it is
// held, because a worker publishes each completion as its walk ends, not
// when the drain ends. The test then recycles those three through the
// request pool before the gate opens, so a worker that touched a request
// after its MarkDone races with the reset (check.sh runs this under -race).
// Once the whole drain is done, the worker has counted it.
func TestStreamedCompletion(t *testing.T) {
	rt, stack, gate, _ := gateRig(t, Options{MaxWorkers: 1, QueueDepth: 256, Batch: 4, PerfSampleEvery: PerfSamplingDisabled}, core.ExecAsync)
	cli := rt.Connect(ipc.Credentials{PID: 1})
	defer cli.Disconnect()
	// A failure while the gate holds a request opens it, so the runtime
	// can shut down.
	holding := false
	defer func() {
		if holding {
			gate.release <- struct{}{}
		}
	}()
	for round := 0; round < 20; round++ {
		reqs := make([]*core.Request, 4)
		for i := range reqs {
			reqs[i] = core.NewRequest(core.OpMessage)
			reqs[i].Offset = int64(round*4 + i)
		}
		reqs[3].Flags = gated
		if err := cli.SubmitBatch(stack, reqs); err != nil {
			t.Fatal(err)
		}
		<-gate.entered
		holding = true
		deadline := time.Now().Add(2 * time.Second)
		for !reqs[0].Done() || !reqs[1].Done() || !reqs[2].Done() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: requests walked before the gated one not done while it is held (done %v %v %v)",
					round, reqs[0].Done(), reqs[1].Done(), reqs[2].Done())
			}
			time.Sleep(50 * time.Microsecond)
		}
		if err := cli.WaitAll(reqs[:3]); err != nil {
			t.Fatal(err)
		}
		for _, req := range reqs[:3] {
			if want := gateAnswer(req.Offset); req.Result != want {
				t.Fatalf("round %d: result %d for offset %d, want %d", round, req.Result, req.Offset, want)
			}
			req.Release()
		}
		// Draw the released requests straight back out of the pool: reset
		// rewrites every field while the worker is still inside the batch.
		var again [3]*core.Request
		for i := range again {
			again[i] = core.NewRequest(core.OpMessage)
		}
		for _, r := range again {
			r.Release()
		}
		gate.release <- struct{}{}
		holding = false
		if err := cli.WaitAll(reqs[3:]); err != nil {
			t.Fatal(err)
		}
		if want := gateAnswer(reqs[3].Offset); reqs[3].Result != want {
			t.Fatalf("round %d: gated result %d, want %d", round, reqs[3].Result, want)
		}
		// The drain's bookkeeping lands before its last completion.
		if got, want := rt.workers[0].processed.Load(), int64(4*(round+1)); got != want {
			t.Fatalf("round %d: worker counts %d processed once its drain is done, want %d", round, got, want)
		}
		reqs[3].Release()
	}
}
