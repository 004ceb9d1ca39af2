package core

import (
	"strings"
	"testing"

	"labstor/internal/ipc"
)

func TestBufHandleLifecycle(t *testing.T) {
	h := AcquireHandle(4096)
	if !h.Valid() || h.Len() != 4096 || !h.Owned() {
		t.Fatalf("bad handle: valid=%v len=%d owned=%v", h.Valid(), h.Len(), h.Owned())
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

func TestReleaseBufDoubleReleasePanicsInDebug(t *testing.T) {
	prev := SetDebugChecks(true)
	defer SetDebugChecks(prev)

	b := AcquireBuf(1024)
	b[0] = 0x7F
	ReleaseBuf(b)
	if b[0] != poisonByte {
		t.Fatalf("released buffer not poisoned: [0]=%#x", b[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double ReleaseBuf must panic in debug mode")
		}
	}()
	ReleaseBuf(b)
}

func TestSegArenaHandles(t *testing.T) {
	sm := ipc.NewSegmentManager()
	a := NewSegArena(sm, "test-arena", ipc.Credentials{PID: 42})

	h, err := a.Acquire(4096)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 4096 || h.Owned() {
		t.Fatalf("seg handle: len=%d owned=%v (client buffers are not stack-owned)", h.Len(), h.Owned())
	}
	// The bytes really live inside a registered, granted segment.
	names := sm.Names()
	if len(names) == 0 {
		t.Fatal("SegArena allocated no segments")
	}
	seg, err := sm.Lookup(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Granted(42) {
		t.Fatal("creator pid not granted on arena segment")
	}
	h.Bytes()[0] = 0xEE
	mapped, err := seg.Map(42)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range mapped {
		if mapped[i] == 0xEE {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("handle write not visible through the segment mapping")
	}

	// Release/reacquire must recycle the slot, not register more memory.
	st := sm.Stats()
	h.Release()
	h2, err := a.Acquire(4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := sm.Stats(); got.Bytes != st.Bytes {
		t.Fatalf("reacquire grew segment bytes %d -> %d", st.Bytes, got.Bytes)
	}
	h2.Release()
}

func TestRequestValueHandleTransfer(t *testing.T) {
	r := AcquireRequest(OpGet)
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
