//go:build !race

package runtime

import (
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
)

// Allocation contracts of the client round trip, so the handshake's gain
// cannot erode unnoticed. AllocsPerRun counts process-wide, so these also
// pin the worker's side of an unsampled request at zero. Not built under
// the race detector, which makes sync.Pool drop a share of its Puts.

func TestClientRoundTripAllocContracts(t *testing.T) {
	for _, mode := range []core.ExecMode{core.ExecAsync, core.ExecSync} {
		rt, stack, _, _ := handshakeRig(t, 1, mode)
		cli := rt.Connect(ipc.Credentials{PID: 1})
		one := make([]*core.Request, 1)
		for _, submit := range []struct {
			name string
			do   func(*core.Request) error
		}{
			// SubmitStack hands the ring a one-element slice of its own,
			// which must not escape to the heap.
			{"SubmitStack+Wait", func(req *core.Request) error { return cli.SubmitStack(stack, req) }},
			// The same request as a caller's batch of one.
			{"SubmitBatch of one+WaitAll", func(req *core.Request) error {
				one[0] = req
				if err := cli.SubmitBatch(stack, one); err != nil {
					return err
				}
				return cli.WaitAll(one)
			}},
		} {
			roundTrip := func() {
				req := core.NewRequest(core.OpMessage)
				req.Offset = 3
				if err := submit.do(req); err != nil || req.Result != gateAnswer(3) {
					t.Fatalf("%s: %v, result %d", submit.name, err, req.Result)
				}
				req.Release()
			}
			for i := 0; i < 64; i++ {
				roundTrip() // prime the pool and the stack's stats entries
			}
			if n := testing.AllocsPerRun(2000, roundTrip); n != 0 {
				t.Errorf("%s stack: pooled %s allocates %v objects per round trip, want 0", mode, submit.name, n)
			}
		}
	}
}

func TestWaitAllCompletedAllocContract(t *testing.T) {
	rt, stack, _, _ := handshakeRig(t, 1, core.ExecAsync)
	cli := rt.Connect(ipc.Credentials{PID: 1})
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
	if n := testing.AllocsPerRun(200, func() {
		if err := cli.WaitAll(reqs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WaitAll over 16 completed requests allocates %v objects, want 0", n)
	}
}

// The SLO watchdog's steady-state pass renders from registries the runtime
// already keeps: once a first evaluation has registered its gauges, a pass
// over populated latency histograms allocates nothing.
func TestEvaluateSLOsAllocContract(t *testing.T) {
	rt := New(Options{
		MaxWorkers: 1, QueueDepth: 256,
		SLOCheckEvery: time.Hour, // only this test evaluates
		SLOs:          []SLOTarget{{Stack: "msg::/gate", P99US: 1e9, MaxErrRate: 0.5}},
	})
	rt.AddDevice(device.New("dev0", device.NVMe, 1<<20))
	stack, err := rt.Mount(core.NewStack("msg::/gate", core.Rules{}, []core.Vertex{{UUID: "gate", Type: gateType}}))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Shutdown)
	cli := rt.Connect(ipc.Credentials{PID: 1})
	for i := 0; i < 256; i++ {
		req := core.NewRequest(core.OpMessage)
		if err := cli.SubmitStack(stack, req); err != nil {
			t.Fatal(err)
		}
		req.Release()
	}
	rt.EvaluateSLOs()
	if st := rt.SLOStatus(); len(st) != 1 {
		t.Fatalf("SLO status %+v, want one evaluated target", st)
	}
	if n := testing.AllocsPerRun(200, rt.EvaluateSLOs); n != 0 {
		t.Errorf("steady-state EvaluateSLOs allocates %v objects, want 0", n)
	}
}
