package vtime

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1500, "1.50us"},
		{2500 * Microsecond, "2.50ms"},
		{3 * Second, "3.000s"},
		{-1500, "-1.50us"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurationConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Errorf("Seconds: %v", (2 * Second).Seconds())
	}
	if (3 * Microsecond).Micros() != 3.0 {
		t.Errorf("Micros: %v", (3 * Microsecond).Micros())
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(100).Add(50)
	if tm != 150 {
		t.Fatalf("Add: %d", tm)
	}
	if tm.Sub(Time(100)) != 50 {
		t.Fatalf("Sub: %d", tm.Sub(Time(100)))
	}
	if MaxTime(3, 7) != 7 || MaxTime(7, 3) != 7 {
		t.Fatal("MaxTime")
	}
}

func TestClockMonotonic(t *testing.T) {
	var c Clock
	c.Advance(100)
	if c.Now() != 100 {
		t.Fatalf("Advance: %d", c.Now())
	}
	c.AdvanceTo(50) // must not go backwards
	if c.Now() != 100 {
		t.Fatalf("AdvanceTo backwards moved clock: %d", c.Now())
	}
	c.AdvanceTo(200)
	if c.Now() != 200 {
		t.Fatalf("AdvanceTo: %d", c.Now())
	}
	c.Advance(-5) // negative clamps to 0
	if c.Now() != 200 {
		t.Fatalf("negative Advance moved clock: %d", c.Now())
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8000 {
		t.Fatalf("concurrent Advance lost updates: %d", c.Now())
	}
}

func TestLockUncontended(t *testing.T) {
	var l Lock
	r1 := l.Acquire(100, 10)
	if r1 != 110 {
		t.Fatalf("r1 = %d", r1)
	}
	// After the busy period drains, a later arrival acquires immediately.
	r2 := l.Acquire(200, 10)
	if r2 != 210 {
		t.Fatalf("r2 = %d", r2)
	}
}

func TestLockContendedSerializes(t *testing.T) {
	var l Lock
	// Three requests all arriving at t=0, hold 10 each: releases 10/20/30.
	if r := l.Acquire(0, 10); r != 10 {
		t.Fatalf("r = %d", r)
	}
	if r := l.Acquire(0, 10); r != 20 {
		t.Fatalf("r = %d", r)
	}
	if r := l.Acquire(0, 10); r != 30 {
		t.Fatalf("r = %d", r)
	}
	if h := l.Horizon(); h != 30 {
		t.Fatalf("Horizon = %d", h)
	}
}

func TestLockPastArrivalNotDragged(t *testing.T) {
	var l Lock
	// A fast entity uses the lock far in the future.
	l.Acquire(1_000_000, 100)
	// A slow entity arrives at t=10 — the lock was idle then, so it must
	// NOT be dragged to the fast entity's timeline.
	r := l.Acquire(10, 100)
	if r != 110 {
		t.Fatalf("past arrival dragged to future: release = %d", r)
	}
}

func TestLockCascadeMerge(t *testing.T) {
	var l Lock
	// Future period [1000, 1100).
	l.Acquire(1000, 100)
	// Insertion at t=950 with hold 100 ends at 1050, overlapping the
	// future period, whose work must shift behind it.
	r := l.Acquire(950, 100)
	if r != 1050 {
		t.Fatalf("r = %d, want 1050", r)
	}
	// The merged period now drains at 1150; an arrival inside it queues
	// behind the whole backlog.
	r2 := l.Acquire(1100, 50)
	if r2 != 1200 {
		t.Fatalf("r2 = %d, want 1200 (950+100+100+50)", r2)
	}
}

func TestLockGapInsertion(t *testing.T) {
	var l Lock
	l.Acquire(0, 10)    // [0,10)
	l.Acquire(1000, 10) // [1000,1010)
	// Arrival in the gap: immediate.
	if r := l.Acquire(500, 10); r != 510 {
		t.Fatalf("gap arrival queued: %d", r)
	}
	if h := l.Horizon(); h != 1010 {
		t.Fatalf("Horizon = %d", h)
	}
}

func TestLockThroughputBound(t *testing.T) {
	// N entities hammering one lock serialize: the last release can be no
	// earlier than N*hold past the first arrival.
	var l Lock
	const n, hold = 50, 7
	var last Time
	for i := 0; i < n; i++ {
		if r := l.Acquire(0, hold); r > last {
			last = r
		}
	}
	if last != n*hold {
		t.Fatalf("serialized drain = %d, want %d", last, n*hold)
	}
}

func TestLockMemoryBound(t *testing.T) {
	var l Lock
	// Create far more disjoint periods than the cap.
	for i := 0; i < 10*maxLockPeriods; i++ {
		l.Acquire(Time(i*1000), 1)
	}
	if len(l.periods) > maxLockPeriods {
		t.Fatalf("periods grew unbounded: %d", len(l.periods))
	}
}

func TestLockQuickReleaseInvariants(t *testing.T) {
	// Properties: release >= arrival + hold, and the lock conserves work —
	// for same-time arrivals, total drain equals total hold.
	f := func(arrivals []uint16, holds []uint8) bool {
		var l Lock
		n := len(arrivals)
		if len(holds) < n {
			n = len(holds)
		}
		for i := 0; i < n; i++ {
			a := Time(arrivals[i])
			h := Duration(holds[i])
			r := l.Acquire(a, h)
			if r < a.Add(h) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refLock is the reference model for Lock: Acquire as first written,
// with a linear scan for the arrival's busy period and a shift of
// the whole slice to merge the two oldest periods. Lock must give the same
// answers for every input.
type refLock struct{ periods []busyPeriod }

func (l *refLock) Acquire(now Time, hold Duration) Time {
	if hold < 0 {
		hold = 0
	}
	i := 0
	for i < len(l.periods) && l.periods[i].end <= now {
		i++
	}
	var release Time
	if i < len(l.periods) && l.periods[i].start <= now {
		release = l.periods[i].end.Add(hold)
		l.periods[i].end = release
	} else {
		release = now.Add(hold)
		l.periods = append(l.periods, busyPeriod{})
		copy(l.periods[i+1:], l.periods[i:])
		l.periods[i] = busyPeriod{start: now, end: release}
	}
	for i+1 < len(l.periods) && l.periods[i+1].start < l.periods[i].end {
		w := l.periods[i+1].end.Sub(l.periods[i+1].start)
		l.periods[i].end = l.periods[i].end.Add(w)
		l.periods = append(l.periods[:i+1], l.periods[i+2:]...)
	}
	for len(l.periods) > maxLockPeriods {
		w := l.periods[1].end.Sub(l.periods[1].start)
		l.periods[0].end = l.periods[0].end.Add(w)
		l.periods = append(l.periods[:1], l.periods[2:]...)
	}
	return release
}

// TestLockMatchesReferenceModel drives Lock and the reference model with
// the same seeded stream of calls from eight actors, each on its own
// clock: arrivals at the actor's clock or behind it, advances of nothing,
// a little or a lot (so the lock fills past maxLockPeriods and merges),
// and holds that are often zero. Every release, the busy periods after
// every call, and the horizon must agree.
func TestLockMatchesReferenceModel(t *testing.T) {
	seeds, calls := 300, 20000
	if testing.Short() || raceEnabled {
		seeds = 10
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var got Lock
		var want refLock
		var clocks [8]Time
		for c := 0; c < calls; c++ {
			a := rng.Intn(len(clocks))
			switch r := rng.Intn(10); {
			case r < 5:
				clocks[a] = clocks[a].Add(Duration(rng.Intn(200)))
			case r < 7:
				clocks[a] = clocks[a].Add(Duration(rng.Intn(100_000)))
			}
			now := clocks[a]
			if rng.Intn(8) == 0 {
				now = MaxTime(0, now.Add(-Duration(rng.Intn(50_000))))
			}
			hold := Duration(rng.Intn(300))
			if rng.Intn(4) == 0 {
				hold = 0
			}
			g, w := got.Acquire(now, hold), want.Acquire(now, hold)
			if g != w {
				t.Fatalf("seed %d call %d: Acquire(%d, %d) = %d, reference %d", seed, c, now, hold, g, w)
			}
			if rng.Intn(2) == 0 {
				clocks[a] = g
			}
			if !slices.Equal(got.periods, want.periods) {
				t.Fatalf("seed %d call %d: busy periods %v, reference %v", seed, c, got.periods, want.periods)
			}
		}
		if h, w := got.Horizon(), want.periods[len(want.periods)-1].end; h != w {
			t.Fatalf("seed %d: Horizon = %d, reference %d", seed, h, w)
		}
	}
}

// TestLockAcquireSteadyStateAllocs: once a lock holds maxLockPeriods busy
// periods, Acquire neither allocates nor grows, whether the arrival opens
// a new period at the end (merging the two oldest) or in a gap.
func TestLockAcquireSteadyStateAllocs(t *testing.T) {
	var l Lock
	now := Time(0)
	step := func() {
		now = now.Add(1000)
		l.Acquire(now, 1)
		l.Acquire(now.Add(-500), 1)
	}
	for i := 0; i < 4*maxLockPeriods; i++ {
		step()
	}
	if n := testing.AllocsPerRun(2000, step); n != 0 {
		t.Fatalf("steady-state Acquire allocates %v objects, want 0", n)
	}
	if len(l.periods) != maxLockPeriods {
		t.Fatalf("%d busy periods, want %d", len(l.periods), maxLockPeriods)
	}
}

func TestServerParallelism(t *testing.T) {
	s := NewServer(2)
	if s.Parallelism() != 2 {
		t.Fatal("parallelism")
	}
	// Two units at t=0 run in parallel on separate channels.
	_, e1 := s.Serve(0, 10)
	_, e2 := s.Serve(0, 10)
	if e1 != 10 || e2 != 10 {
		t.Fatalf("parallel service broken: %d %d", e1, e2)
	}
	// A third queues behind one of them.
	_, e3 := s.Serve(0, 10)
	if e3 != 20 {
		t.Fatalf("third unit end = %d, want 20", e3)
	}
	if s.Horizon() != 20 {
		t.Fatalf("Horizon = %d", s.Horizon())
	}
}

func TestServerMinParallelism(t *testing.T) {
	s := NewServer(0)
	if s.Parallelism() != 1 {
		t.Fatalf("NewServer(0) parallelism = %d", s.Parallelism())
	}
}

func TestCostModelCopyCompress(t *testing.T) {
	m := Default()
	if m.Copy(0) != 0 || m.Copy(-5) != 0 {
		t.Fatal("Copy of non-positive size must be free")
	}
	if m.Copy(1<<20) <= m.Copy(1<<10) {
		t.Fatal("Copy must scale with size")
	}
	if m.Compress(4096) <= m.Copy(4096) {
		t.Fatal("Compression must cost more than a copy")
	}
}

func TestCostModelCalibrationSanity(t *testing.T) {
	m := Default()
	// The Fig. 6 ladder depends on these orderings.
	if m.SPDKSubmit >= m.KernelDriverSubmit {
		t.Fatal("SPDK must be cheaper than the kernel driver path")
	}
	if m.IOUringSubmit >= m.ModeSwitch+m.VFSOverhead {
		t.Fatal("io_uring submission must undercut the syscall+VFS path")
	}
	if m.AIOThreadDispatch <= 0 || m.ContextSwitch <= m.ModeSwitch/2 {
		t.Fatal("implausible context-switch calibration")
	}
}
