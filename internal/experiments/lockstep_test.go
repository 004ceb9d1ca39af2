package experiments

import (
	"testing"
	"time"
)

func TestLockstepHoldsTheLeaderUntilOthersCatchUp(t *testing.T) {
	l := NewLockstep(2)
	l.Wait(0, 0) // the slowest actor never waits

	passed := make(chan struct{})
	go func() {
		l.Wait(1, 100)
		close(passed)
	}()
	select {
	case <-passed:
		t.Fatal("actor at 100 passed while actor 0 was still at 0")
	case <-time.After(20 * time.Millisecond):
	}

	l.Wait(0, 60) // still behind: actor 1 stays held
	select {
	case <-passed:
		t.Fatal("actor at 100 passed while actor 0 was at 60")
	case <-time.After(20 * time.Millisecond):
	}

	l.Done(0)
	select {
	case <-passed:
	case <-time.After(5 * time.Second):
		t.Fatal("actor 1 still held after actor 0 finished")
	}
	l.Wait(1, 500) // alone now: never blocks
}
