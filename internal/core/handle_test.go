package core

import (
	"strings"
	"testing"

	"labstor/internal/arena"
)

func TestBufHandleLifecycle(t *testing.T) {
	h := AcquireHandle(4096)
	if !h.Valid() || h.Len() != 4096 {
		t.Fatalf("bad handle: valid=%v len=%d", h.Valid(), h.Len())
	}
	b := h.Bytes()
	b[0], b[4095] = 0xAA, 0xBB

	s := h.Slice(100, 200)
	if s.Len() != 100 {
		t.Fatalf("slice: len=%d", s.Len())
	}
	s.Bytes()[0] = 0xCC
	if b[100] != 0xCC {
		t.Fatal("slice must alias the parent view")
	}

	r := h.Retain()
	h.Release() // refcount 2 -> 1; buffer stays alive
	if got := r.Bytes()[4095]; got != 0xBB {
		t.Fatalf("buffer recycled while retained: [4095]=%#x", got)
	}
	r.Release() // last reference
}

func TestBufHandleSoleAndNarrow(t *testing.T) {
	prev := SetDebugChecks(true)
	defer SetDebugChecks(prev)

	if (BufHandle{}).Sole() {
		t.Fatal("the zero handle holds no reference")
	}
	page := AcquireHandle(4096)
	page.Bytes()[0] = 0x11
	if !page.Sole() {
		t.Fatal("a fresh handle is its buffer's only holder")
	}
	view := page.Retain().Narrow(0, 100) // a request's reference to a cache page
	if page.Sole() || view.Sole() {
		t.Fatal("a page shared by a cache and a request has no sole holder")
	}
	if view.Len() != 100 || view.Bytes()[0] != 0x11 {
		t.Fatalf("narrowed view: len %d, [0] %#x", view.Len(), view.Bytes()[0])
	}
	page.Release() // the cache evicts: the request's narrowed reference remains
	if !view.Sole() || view.Bytes()[0] != 0x11 {
		t.Fatal("the narrowed view must keep the buffer alive as its sole holder")
	}
	view.Release() // the narrowed reference is the last one: no double release
}

func TestBufHandleUseAfterReleasePanicsInDebug(t *testing.T) {
	prev := SetDebugChecks(true)
	defer SetDebugChecks(prev)

	h := AcquireHandle(512)
	h.Bytes()[0] = 1
	h.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Bytes() on a released handle must panic in debug mode")
		}
		if !strings.Contains(r.(string), "released buffer") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	_ = h.Bytes() // borrowed slice outliving its release — must be caught
}

func TestBufHandleDoubleReleasePanicsInDebug(t *testing.T) {
	prev := SetDebugChecks(true)
	defer SetDebugChecks(prev)

	h := AcquireHandle(512)
	h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release must panic in debug mode")
		}
	}()
	h.Release()
}

func TestBufHandleDoubleReleaseCountedWhenChecksOff(t *testing.T) {
	prev := SetDebugChecks(false)
	defer SetDebugChecks(prev)

	before := HandleDoubleReleases()
	h := AcquireHandle(512)
	h.Release()
	h.Release()
	if got := HandleDoubleReleases(); got != before+1 {
		t.Fatalf("double releases %d -> %d, want +1", before, got)
	}
}

func TestBufHandleReleasePoisonsInDebug(t *testing.T) {
	prev := SetDebugChecks(true)
	defer SetDebugChecks(prev)

	h := AcquireHandle(1024)
	b := h.Bytes()
	b[0] = 0x7F
	h.Release()
	if b[0] != arena.PoisonByte {
		t.Fatalf("released buffer not poisoned: [0]=%#x", b[0])
	}
}

func TestRequestValueHandleTransfer(t *testing.T) {
	r := NewRequest(OpGet)
	out := r.CompleteValue(4096)
	copy(out, []byte("payload"))
	h := r.TakeValue()
	r.MarkDone()
	before := BufArenaStats().Releases
	r.Release()
	if got := BufArenaStats().Releases; got != before {
		t.Fatal("Release recycled a taken-over value buffer")
	}
	if string(h.Bytes()[:7]) != "payload" {
		t.Fatal("taken value corrupted after request release")
	}
	h.Release()
}

func TestBufArenaSizeClasses(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 512},
		{1, 512},
		{511, 512},
		{512, 512},
		{513, 1024},
		{4096, 4096},
		{4097, 8192},
		{1 << 21, 1 << 21},
	}
	for _, c := range cases {
		h := AcquireHandle(c.n)
		if h.Len() != c.n || len(h.Bytes()) != c.n || cap(h.Backing()) != c.wantCap {
			t.Fatalf("AcquireHandle(%d): len=%d class=%d, want len=%d class=%d", c.n, h.Len(), cap(h.Backing()), c.n, c.wantCap)
		}
		h.Release()
	}
}

func TestBufArenaOversizedFallsBack(t *testing.T) {
	before := BufArenaStats()
	n := (1 << 21) + 1
	h := AcquireHandle(n)
	if h.Len() != n || len(h.Bytes()) != n {
		t.Fatalf("oversized acquire len=%d", h.Len())
	}
	after := BufArenaStats()
	if after.Misses != before.Misses+1 {
		t.Fatalf("oversized acquire should count a miss (%d -> %d)", before.Misses, after.Misses)
	}
	// The heap fallback is left to the GC, never pooled.
	h.Release()
	if got := BufArenaStats().Releases; got != after.Releases {
		t.Fatalf("an oversized buffer must not be pooled (releases %d -> %d)", after.Releases, got)
	}
}

func TestBufArenaReuse(t *testing.T) {
	// Drain-and-recycle: after a release, the next same-class acquire is a
	// hit and may not retain the previous user's length.
	h := AcquireHandle(4000)
	h.Bytes()[0] = 0xEE
	h.Release()
	before := BufArenaStats()
	h2 := AcquireHandle(300) // smaller length, but could still be class 512..4096
	if h2.Len() != 300 {
		t.Fatalf("reacquired len=%d", h2.Len())
	}
	after := BufArenaStats()
	if after.Gets != before.Gets+1 {
		t.Fatalf("gets %d -> %d", before.Gets, after.Gets)
	}
	if after.Bytes != before.Bytes+300 {
		t.Fatalf("bytes %d -> %d, want +300", before.Bytes, after.Bytes)
	}
	h2.Release()

	// Same-class reacquire after release must be served from the pool.
	AcquireHandle(4096).Release()
	mid := BufArenaStats()
	h4 := AcquireHandle(4096)
	end := BufArenaStats()
	if !raceEnabled {
		if end.Misses != mid.Misses {
			t.Fatalf("reacquire after release should hit the pool (misses %d -> %d)", mid.Misses, end.Misses)
		}
		if end.Hits != mid.Hits+1 {
			t.Fatalf("hits %d -> %d", mid.Hits, end.Hits)
		}
	}
	h4.Release()
}

func TestCompleteValueRecycledOnRelease(t *testing.T) {
	r := NewRequest(OpRead)
	out := r.CompleteValue(700)
	if len(out) != 700 || cap(out) != 1024 {
		t.Fatalf("CompleteValue(700): len=%d cap=%d", len(out), cap(out))
	}
	if &out[0] != &r.Value[0] {
		t.Fatal("CompleteValue must install the buffer as r.Value")
	}
	r.MarkDone()
	before := BufArenaStats()
	r.Release()
	if got := BufArenaStats().Releases; got != before.Releases+1 {
		t.Fatal("Release must return r.ValueH to the arena")
	}
}

// TestReleaseLeavesBareValueToGC: the arena takes back only its own
// buffers. A Value without a handle — even one of a class's exact size —
// is left to the GC when its request is released.
func TestReleaseLeavesBareValueToGC(t *testing.T) {
	r := NewRequest(OpRead)
	r.Value = make([]byte, 4096)
	r.MarkDone()
	before := BufArenaStats().Releases
	r.Release()
	if got := BufArenaStats().Releases; got != before {
		t.Fatalf("Release recycled a bare Value (releases %d -> %d)", before, got)
	}
}
