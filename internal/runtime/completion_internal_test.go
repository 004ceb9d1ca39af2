package runtime

import (
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/ipc"
)

// TestParkedWorkerPublishesAttribution deactivates the only worker while it
// holds its 10th request. The worker parks through the inactive branch of
// its run loop, which must publish what its folder holds: Attribution, the
// /profile tables and the benchmark's counts read only published deltas.
func TestParkedWorkerPublishesAttribution(t *testing.T) {
	rt, stack, gate, _ := handshakeRig(t, 1, core.ExecAsync)
	cli := rt.Connect(ipc.Credentials{PID: 1})
	for i := 0; i < 9; i++ {
		if err := cli.SubmitStack(stack, core.NewRequest(core.OpMessage)); err != nil {
			t.Fatal(err)
		}
	}
	held := []*core.Request{core.NewRequest(core.OpMessage)}
	held[0].Flags = gated
	if err := cli.SubmitBatch(stack, held); err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	rt.workers[0].setActive(false)
	gate.release <- struct{}{}
	if err := cli.WaitAll(held); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		attr := rt.Attribution()
		if len(attr) == 1 && attr[0].Requests == 10 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("parked worker left completions unpublished: attribution %+v, want 10 requests", attr)
		}
		time.Sleep(time.Millisecond)
	}
}
