// Package vtime provides the virtual-time substrate used by every
// performance experiment in this repository.
//
// The paper's evaluation measures wall-clock latency and IOPS on bare-metal
// storage hardware (NVMe, SATA SSD, HDD, emulated PMEM). None of that
// hardware exists here, so latency is *modeled*: each request accumulates
// virtual nanoseconds as it crosses software stages and simulated devices,
// and queueing/contention effects emerge from per-entity virtual clocks
// (see Clock, Lock and the device models in internal/device).
//
// Virtual time is deliberately decoupled from wall-clock time: results are
// deterministic for deterministic workloads, independent of host speed, GC
// pauses and scheduling noise, and reproducible on a single CPU.
package vtime

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Time is an absolute point on a virtual timeline, in nanoseconds since the
// start of the experiment.
type Time int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a Duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	}
}

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Add returns the point d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock is a monotonically advancing virtual clock owned by one logical
// entity (a worker, a client thread, a device channel). It is safe for
// concurrent use; AdvanceTo never moves the clock backwards.
type Clock struct {
	now atomic.Int64
}

// Now returns the clock's current virtual time.
func (c *Clock) Now() Time { return Time(c.now.Load()) }

// Advance moves the clock forward by d and returns the new time.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		d = 0
	}
	return Time(c.now.Add(int64(d)))
}

// AdvanceTo moves the clock to at least t and returns the resulting time
// (which may be later than t if another goroutine advanced it further).
func (c *Clock) AdvanceTo(t Time) Time {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return Time(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}

// Lock is a virtual-time mutex: a contended resource whose hold times
// serialize in virtual time. It reproduces the behaviour of in-kernel locks
// (directory mutexes, journal locks) that the paper identifies as the
// scalability bottleneck of kernel filesystems.
//
// Every entity in this simulation owns an independent virtual clock, and
// entities reach the lock in arbitrary *real* order — a goroutine may run a
// long burst, pushing its clock far ahead, before a logically concurrent
// goroutine presents requests with earlier virtual arrival times. The lock
// therefore reconstructs the serialized timeline instead of chaining
// absolute release times: it maintains the set of busy periods (intervals
// of back-to-back serial work), inserts each new hold at its virtual
// arrival point, and cascade-shifts any later busy periods that the
// insertion now overlaps. A requester queues only behind work that
// logically preceded-or-overlapped it, never behind work from another
// entity's future.
type Lock struct {
	mu sync.Mutex
	// periods are the busy periods, sorted by start and non-overlapping,
	// so their ends are sorted too. They are a window of buf: merging the
	// two oldest advances the window's head, and an insertion that finds
	// the window at the end of buf first moves it back to buf's start.
	periods []busyPeriod
	buf     []busyPeriod
}

// busyPeriod is a maximal interval of back-to-back serial lock work.
type busyPeriod struct {
	start Time
	end   Time
}

// maxLockPeriods bounds Lock memory; the oldest periods merge when exceeded.
const maxLockPeriods = 128

// Acquire models acquiring the lock at virtual time now and holding it for
// hold. It returns the virtual time at which the lock was released to the
// caller, i.e. the caller's new local time.
func (l *Lock) Acquire(now Time, hold Duration) Time {
	if hold < 0 {
		hold = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	// The busy period containing the arrival, if any, is the first one
	// that ends after it.
	i := l.find(now)
	p := l.periods
	var release Time
	if i < len(p) && p[i].start <= now {
		// Arrival inside period i: the new work queues at the period's end.
		release = p[i].end.Add(hold)
		p[i].end = release
	} else {
		// Arrival in a gap (or beyond all periods): immediate grant; a new
		// busy period begins at the arrival.
		release = now.Add(hold)
		p = l.insert(i, busyPeriod{start: now, end: release})
	}
	// Cascade: shifting period i may now overlap later periods — their work
	// serializes behind it.
	j := i + 1
	for ; j < len(p) && p[j].start < p[i].end; j++ {
		p[i].end = p[i].end.Add(p[j].end.Sub(p[j].start))
	}
	if j > i+1 {
		p = append(p[:i+1], p[j:]...)
	}
	// Bound memory by merging the two oldest periods into the second slot.
	for len(p) > maxLockPeriods {
		p[1] = busyPeriod{start: p[0].start, end: p[0].end.Add(p[1].end.Sub(p[1].start))}
		p = p[1:]
	}
	l.periods = p
	return release
}

// find returns the index of the first busy period that ends after now.
func (l *Lock) find(now Time) int {
	lo, hi := 0, len(l.periods)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.periods[m].end <= now {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert puts v at index i of the periods and returns them. A full window
// moves back to the start of buf, or into a larger buf if it fills it.
func (l *Lock) insert(i int, v busyPeriod) []busyPeriod {
	p := l.periods
	if len(p) == cap(p) {
		if cap(l.buf) == len(p) {
			l.buf = make([]busyPeriod, 2*len(p)+8)
		}
		p = l.buf[:copy(l.buf, p)]
	}
	p = p[:len(p)+1]
	copy(p[i+1:], p[i:])
	p[i] = v
	return p
}

// Horizon returns the end of the lock's latest busy period (0 if never
// used) — a load proxy for steering decisions.
func (l *Lock) Horizon() Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.periods) == 0 {
		return 0
	}
	return l.periods[len(l.periods)-1].end
}

// Server models a station with n parallel FCFS channels (e.g. an NVMe
// device's internal parallelism). Each channel is a busy-period Lock, so
// work submitted out of real-time order still lands at its virtual arrival
// point. Work goes to the channel with the earliest horizon.
type Server struct {
	mu    sync.Mutex
	chans []Lock
}

// NewServer returns a Server with n parallel channels. n < 1 is treated as 1.
func NewServer(n int) *Server {
	if n < 1 {
		n = 1
	}
	return &Server{chans: make([]Lock, n)}
}

// Parallelism returns the number of channels.
func (s *Server) Parallelism() int { return len(s.chans) }

// Serve submits a unit of work arriving at arrival with service time busy,
// and returns (start, completion) in virtual time.
func (s *Server) Serve(arrival Time, busy Duration) (Time, Time) {
	s.mu.Lock()
	best := 0
	bestH := s.chans[0].Horizon()
	for i := 1; i < len(s.chans); i++ {
		if h := s.chans[i].Horizon(); h < bestH {
			best, bestH = i, h
		}
	}
	s.mu.Unlock()
	end := s.chans[best].Acquire(arrival, busy)
	return end.Add(-busy), end
}

// Horizon returns the completion time of the most loaded channel — the
// virtual time at which the server becomes fully idle.
func (s *Server) Horizon() Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	var h Time
	for i := range s.chans {
		if c := s.chans[i].Horizon(); c > h {
			h = c
		}
	}
	return h
}
