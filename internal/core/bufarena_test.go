package core

import "testing"

func TestBufArenaSizeClasses(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 512},
		{511, 512},
		{512, 512},
		{513, 1024},
		{4096, 4096},
		{4097, 8192},
		{1 << 21, 1 << 21},
	}
	for _, c := range cases {
		b := AcquireBuf(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Fatalf("AcquireBuf(%d): len=%d cap=%d, want len=%d cap=%d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
		ReleaseBuf(b)
	}
	if b := AcquireBuf(0); b != nil {
		t.Fatalf("AcquireBuf(0) = %v, want nil", b)
	}
	if b := AcquireBuf(-4); b != nil {
		t.Fatalf("AcquireBuf(-4) = %v, want nil", b)
	}
}

func TestBufArenaOversizedFallsBack(t *testing.T) {
	before := BufArenaStats()
	n := (1 << 21) + 1
	b := AcquireBuf(n)
	if len(b) != n {
		t.Fatalf("oversized acquire len=%d", len(b))
	}
	after := BufArenaStats()
	if after.Misses != before.Misses+1 {
		t.Fatalf("oversized acquire should count a miss (%d -> %d)", before.Misses, after.Misses)
	}
	// Releasing the heap fallback (and other foreign buffers) is a no-op.
	ReleaseBuf(b)
	ReleaseBuf(nil)
	ReleaseBuf(make([]byte, 100))
	if got := BufArenaStats().Releases; got != after.Releases {
		t.Fatalf("foreign buffers must not be accepted (releases %d -> %d)", after.Releases, got)
	}
}

func TestBufArenaReuse(t *testing.T) {
	// Drain-and-recycle: after a release, the next same-class acquire is a
	// hit and may not retain the previous user's length.
	b := AcquireBuf(4000)
	b[0] = 0xEE
	ReleaseBuf(b)
	before := BufArenaStats()
	b2 := AcquireBuf(300) // smaller length, but could still be class 512..4096
	if len(b2) != 300 {
		t.Fatalf("reacquired len=%d", len(b2))
	}
	after := BufArenaStats()
	if after.Gets != before.Gets+1 {
		t.Fatalf("gets %d -> %d", before.Gets, after.Gets)
	}
	if after.Bytes != before.Bytes+300 {
		t.Fatalf("bytes %d -> %d, want +300", before.Bytes, after.Bytes)
	}
	ReleaseBuf(b2)

	// Same-class reacquire after release must be served from the pool.
	b3 := AcquireBuf(4096)
	ReleaseBuf(b3)
	mid := BufArenaStats()
	b4 := AcquireBuf(4096)
	end := BufArenaStats()
	if !raceEnabled {
		if end.Misses != mid.Misses {
			t.Fatalf("reacquire after release should hit the pool (misses %d -> %d)", mid.Misses, end.Misses)
		}
		if end.Hits != mid.Hits+1 {
			t.Fatalf("hits %d -> %d", mid.Hits, end.Hits)
		}
	}
	ReleaseBuf(b4)
}

func TestCompleteValueRecycledOnRelease(t *testing.T) {
	r := AcquireRequest(OpRead)
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
		t.Fatal("Release must return r.Value to the arena")
	}
}
