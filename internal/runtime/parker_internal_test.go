package runtime

import (
	"testing"
	"time"

	"labstor/internal/ipc"
)

// The parker every worker and waiting client blocks on. check.sh's
// handshake step runs these (they match 'Park') under -race at -cpu 1,2,8.

func TestParker(t *testing.T) {
	// quiet fails unless park left the timer stopped and drained: no value
	// waits in its channel, and Stop reports it was not running.
	quiet := func(t *testing.T, p *parker) {
		t.Helper()
		if len(p.backstop.C) != 0 || p.backstop.Stop() {
			t.Fatal("park left the backstop armed or undrained")
		}
	}
	never := make(chan struct{})

	t.Run("two rings leave one token", func(t *testing.T) {
		p := newParker()
		p.ring()
		p.ring()
		if len(p.bell) != 1 {
			t.Fatalf("bell holds %d tokens, want 1", len(p.bell))
		}
	})
	t.Run("a park after a ring returns rung", func(t *testing.T) {
		p := newParker()
		p.ring()
		if got := p.park(never); got != rung {
			t.Fatalf("park = %d, want rung", got)
		}
		if len(p.bell) != 0 {
			t.Fatal("the ring's token is still in the bell")
		}
		quiet(t, &p)
	})
	t.Run("a park with no ring returns on the backstop", func(t *testing.T) {
		p := newParker()
		start := time.Now()
		if got := p.park(never); got != backstopped {
			t.Fatalf("park = %d, want backstopped", got)
		}
		if waited := time.Since(start); waited < parkBackstop {
			t.Fatalf("backstop fired after %v, before parkBackstop", waited)
		}
		quiet(t, &p)
		// The timer re-arms: a second park without a ring ends the same way.
		if got := p.park(never); got != backstopped {
			t.Fatalf("second park = %d, want backstopped", got)
		}
	})
	t.Run("a closed stop returns stopped", func(t *testing.T) {
		p := newParker()
		stop := make(chan struct{})
		close(stop)
		// Rung after the close, as Shutdown does: stopped, not rung.
		p.ring()
		if got := p.park(stop); got != stopped {
			t.Fatalf("park = %d, want stopped", got)
		}
		quiet(t, &p)
		// Not rung: the backstop wakes it, and it is still stopped.
		if got := p.park(stop); got != stopped {
			t.Fatalf("park without a ring = %d, want stopped", got)
		}
		quiet(t, &p)
	})
}

// TestShutdownRingsEveryParker: a park does not select on rt.stop, so
// Shutdown rings every worker and connected client after closing it; a Wait
// parked at Shutdown returns ErrStopped at once, not at its next backstop.
func TestShutdownRingsEveryParker(t *testing.T) {
	rt := New(Options{MaxWorkers: 2})
	cli := rt.Connect(ipc.Credentials{PID: 1})
	parkers := []*parker{&cli.p}
	for _, w := range rt.workers {
		parkers = append(parkers, &w.p)
	}
	for _, p := range parkers {
		for len(p.bell) > 0 { // Connect's queue assignment rang the workers
			<-p.bell
		}
	}
	rt.Shutdown()
	for i, p := range parkers {
		if len(p.bell) != 1 {
			t.Fatalf("parker %d holds %d tokens after Shutdown, want 1", i, len(p.bell))
		}
		if got := p.park(rt.stop); got != stopped {
			t.Fatalf("parker %d: park = %d after Shutdown, want stopped", i, got)
		}
	}
}

// TestRestartRingsEveryWorker: Restart rings every worker, so one that parked
// while the runtime was crashed drains what was queued meanwhile at once,
// not at its next backstop. No worker runs here, so the tokens stay put.
func TestRestartRingsEveryWorker(t *testing.T) {
	rt := New(Options{MaxWorkers: 3})
	for _, w := range rt.workers {
		if len(w.p.bell) != 0 {
			t.Fatalf("worker %d rung before Restart", w.id)
		}
	}
	rt.Crash()
	if err := rt.Restart(); err != nil {
		t.Fatal(err)
	}
	for _, w := range rt.workers {
		if len(w.p.bell) != 1 {
			t.Fatalf("worker %d's bell holds %d tokens after Restart, want 1", w.id, len(w.p.bell))
		}
	}
}
