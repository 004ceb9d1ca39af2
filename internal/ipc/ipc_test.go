package ipc

import (
	"slices"
	"testing"
)

// TestQueuePairProtocol walks submit → poll → complete → reap at each
// width: a lone request is a batch of one.
func TestQueuePairProtocol(t *testing.T) {
	const depth = 16
	for _, w := range ringWidths(depth) {
		qp := NewQueuePair[int](7, Primary, true, depth)
		if qp.ID != 7 || qp.Kind != Primary || !qp.Ordered {
			t.Fatal("metadata")
		}
		in := seq(0, w)
		if n := qp.SubmitBatch(in); n != w {
			t.Fatalf("width %d: SubmitBatch = %d", w, n)
		}
		if qp.Inflight() != w || qp.SQLen() != w {
			t.Fatalf("width %d: inflight=%d sqlen=%d", w, qp.Inflight(), qp.SQLen())
		}
		got := make([]int, w)
		if n := qp.PollSQBatch(got); n != w || !slices.Equal(got, in) {
			t.Fatalf("width %d: PollSQBatch: %d %v", w, n, got)
		}
		if qp.Inflight() != w || qp.SQLen() != 0 {
			t.Fatalf("width %d: polled requests must stay in flight: inflight=%d sqlen=%d", w, qp.Inflight(), qp.SQLen())
		}
		if n := qp.CompleteBatch(got); n != w {
			t.Fatalf("width %d: CompleteBatch = %d", w, n)
		}
		if qp.Inflight() != 0 {
			t.Fatalf("width %d: inflight after complete: %d", w, qp.Inflight())
		}
		reaped := make([]int, w)
		if n := qp.PollCQBatch(reaped); n != w || !slices.Equal(reaped, in) {
			t.Fatalf("width %d: PollCQBatch: %d %v", w, n, reaped)
		}
		if n := qp.PollCQBatch(reaped); n != 0 {
			t.Fatalf("width %d: PollCQBatch on a reaped queue = %d", w, n)
		}
	}
}

// TestQueuePairCompleteOverflow: completions that do not fit in the CQ are
// signalled directly by the caller and are no longer in flight either.
func TestQueuePairCompleteOverflow(t *testing.T) {
	qp := NewQueuePair[int](1, Primary, true, 4)
	buf := make([]int, 4)
	for round, wantQueued := range []int{4, 0} { // the unreaped CQ is full in round 1
		if n := qp.SubmitBatch(seq(0, 4)); n != 4 {
			t.Fatalf("round %d: SubmitBatch = %d", round, n)
		}
		if n := qp.PollSQBatch(buf); n != 4 {
			t.Fatalf("round %d: PollSQBatch = %d", round, n)
		}
		if n := qp.CompleteBatch(buf); n != wantQueued {
			t.Fatalf("round %d: CompleteBatch queued %d, want %d", round, n, wantQueued)
		}
		if qp.Inflight() != 0 {
			t.Fatalf("round %d: inflight = %d after completing every request", round, qp.Inflight())
		}
	}
}

func TestQueueKindString(t *testing.T) {
	if Primary.String() != "primary" || Intermediate.String() != "intermediate" {
		t.Fatal("kind strings")
	}
}
