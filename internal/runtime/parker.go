package runtime

import "time"

// parkBackstop bounds a park: a wake-up lost to a race costs at most this.
const parkBackstop = 2 * time.Millisecond

// parker is the runtime's one way to block: an idle worker and a client
// waiting for a completion each park on one. Its bell holds one token (a
// ring means "re-check", never "ready"), so ring never blocks. The coarse
// backstop timer is re-armed per park, so a park allocates nothing.
type parker struct {
	bell     chan struct{}
	backstop *time.Timer
}

// How a park ended.
const (
	rung = iota
	backstopped
	stopped
)

func newParker() parker {
	p := parker{bell: make(chan struct{}, 1), backstop: time.NewTimer(parkBackstop)}
	p.disarm()
	return p
}

// ring wakes the parked owner, or its next park if it is not parked.
func (p *parker) ring() {
	select {
	case p.bell <- struct{}{}:
	default:
	}
}

// park blocks until a ring or the backstop and says which, or stopped once
// stop is closed. It checks stop on waking and does not select on it: every
// parker shares the runtime's one stop channel, and a select on it locks it
// on every park (DESIGN.md §9). So whoever closes stop then rings every
// parker. The timer is stopped and drained on entry and on return (go.mod's
// go 1.22 timers: Reset is only safe on such a timer).
func (p *parker) park(stop <-chan struct{}) int {
	p.backstop.Reset(parkBackstop)
	how := backstopped
	select {
	case <-p.backstop.C:
	case <-p.bell:
		p.disarm()
		how = rung
	}
	select {
	case <-stop:
		return stopped
	default:
		return how
	}
}

// disarm stops the backstop and drains a value it sent before the stop.
func (p *parker) disarm() {
	if !p.backstop.Stop() {
		<-p.backstop.C
	}
}
