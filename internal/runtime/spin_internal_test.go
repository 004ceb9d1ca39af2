package runtime

import (
	"math/rand"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/ipc"
)

// The worker's adaptive idle spin (nextSpin, Worker.run). The tests assert
// on poll and park counts, never on timing ratios. check.sh runs them under
// -race at -cpu 1,2,8 with the handshake tests; the -cpu 1 leg fails if the
// time-bounded spin forgets to yield.

// SpinMax exports spinMax to the external snapshot test.
const SpinMax = spinMax

func TestSpinWindowRule(t *testing.T) {
	const us = time.Microsecond
	long := spinMax + us
	for _, tc := range []struct {
		name      string
		win, idle time.Duration
		parked    bool
		want      time.Duration
	}{
		{"hit keeps a closed window", 0, us, false, 0},
		{"hit keeps an open window", 8 * us, 7 * us, false, 8 * us},
		{"late hit keeps the window", spinMax, long, false, spinMax},
		{"short park opens a closed window", 0, 5 * us, true, spinStart},
		{"short park doubles 2", 2 * us, 10 * us, true, 4 * us},
		{"short park doubles 4", 4 * us, 10 * us, true, 8 * us},
		{"short park doubles 8", 8 * us, 10 * us, true, 16 * us},
		{"short park stays capped", spinMax, 10 * us, true, spinMax},
		{"park of exactly spinMax grows", 8 * us, spinMax, true, 16 * us},
		{"window under spinStart opens to it", us, 10 * us, true, spinStart},
		{"long park halves 16", 16 * us, long, true, 8 * us},
		{"long park halves 8", 8 * us, time.Second, true, 4 * us},
		{"long park halves 4", 4 * us, long, true, 2 * us},
		{"long park closes under spinStart", 2 * us, long, true, 0},
		{"long park closes an odd window", 3 * us, long, true, 0},
		{"long park keeps a closed window", 0, long, true, 0},
	} {
		if got := nextSpin(tc.win, tc.idle, tc.parked); got != tc.want {
			t.Errorf("%s: nextSpin(%v, %v, %v) = %v, want %v", tc.name, tc.win, tc.idle, tc.parked, got, tc.want)
		}
	}

	// Any sequence of idle periods keeps the window in [0, spinMax].
	rng := rand.New(rand.NewSource(1))
	win := time.Duration(0)
	for i := 0; i < 100000; i++ {
		win = nextSpin(win, time.Duration(rng.Int63n(int64(3*spinMax))), rng.Intn(4) != 0)
		if win < 0 || win > spinMax {
			t.Fatalf("step %d: window %v outside [0, %v]", i, win, spinMax)
		}
	}
}

// TestWorkerParksPromptlyOnSparseArrivals: requests that arrive further
// apart than any spin could bridge close the window, so the worker parks
// right after each one instead of scanning an empty queue until a fixed
// round budget runs out.
func TestWorkerParksPromptlyOnSparseArrivals(t *testing.T) {
	rt, stack, _, _ := handshakeRig(t, 1, core.ExecAsync)
	cli := rt.Connect(ipc.Credentials{PID: 1})
	call := func() {
		req := core.NewRequest(core.OpMessage)
		req.Offset = 5
		if err := cli.SubmitStack(stack, req); err != nil || req.Result != gateAnswer(5) {
			t.Fatalf("call: %v, result %d", err, req.Result)
		}
		req.Release()
	}
	for i := 0; i < 20; i++ {
		call() // back to back: the window may open
	}
	before := rt.Stats()[0]
	const n = 200
	for i := 0; i < n; i++ {
		time.Sleep(300 * time.Microsecond)
		call()
	}
	after := rt.Stats()[0]
	empty := after.EmptyPolls - before.EmptyPolls
	if per := float64(empty) / n; per > 4 {
		t.Fatalf("%d empty polls over %d sparse requests (%.1f per request, %d parks, window %v), want <= 4 per request",
			empty, n, per, after.Parks-before.Parks, after.SpinWindow)
	}
}

// TestIdleWorkerDoesNotRespinAfterBackstop: a worker with no traffic wakes
// every parkBackstop and must go straight back to sleep, one empty scan per
// wake-up, rather than spin again each time.
func TestIdleWorkerDoesNotRespinAfterBackstop(t *testing.T) {
	rt, _, _, _ := handshakeRig(t, 2, core.ExecAsync)
	rt.Connect(ipc.Credentials{PID: 1})
	time.Sleep(50 * time.Millisecond)
	for _, ws := range rt.Stats() {
		if !ws.Active {
			t.Fatalf("worker %d is not active", ws.ID)
		}
		if ws.EmptyPolls > 2*ws.Parks+4 {
			t.Errorf("idle worker %d: %d empty polls for %d parks, want <= 2*parks+4", ws.ID, ws.EmptyPolls, ws.Parks)
		}
	}
}
