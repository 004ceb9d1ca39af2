package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"labstor/internal/vtime"
)

func testOpName(op uint8) string { return fmt.Sprintf("op%d", op) }

func TestFolderFoldAndFlush(t *testing.T) {
	p := NewProfile()
	f := p.NewFolder(testOpName)
	// 10 requests of op 3 on stack 1: lat 1000ns = 300 wait + 200 cpu + 500 dev.
	for i := 0; i < 10; i++ {
		f.Fold(1, "fs::/a", 3, 1000, 300, 200, i == 0)
	}
	if f.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10 (premature flush)", f.Pending())
	}
	// Nothing visible before flush.
	if got := p.Snapshot(); len(got) != 0 {
		t.Fatalf("Snapshot before flush = %v, want empty", got)
	}
	f.Flush()
	if f.Pending() != 0 {
		t.Fatalf("Pending after flush = %d", f.Pending())
	}
	snap := p.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("Snapshot stacks = %d, want 1", len(snap))
	}
	sa := snap[0]
	if sa.Stack != "fs::/a" || sa.Requests != 10 || sa.Errors != 1 {
		t.Fatalf("stack attribution = %+v", sa)
	}
	if len(sa.Ops) != 1 || sa.Ops[0].Op != "op3" || sa.Ops[0].Requests != 10 {
		t.Fatalf("op attribution = %+v", sa.Ops)
	}
	// Coarse split: 30% wait, 20% cpu, 50% device; shares sum to 100.
	if math.Abs(sa.QueueWaitPct-30) > 1e-9 || math.Abs(sa.CPUPct-20) > 1e-9 || math.Abs(sa.DevicePct-50) > 1e-9 {
		t.Fatalf("split = wait %.2f cpu %.2f dev %.2f, want 30/20/50", sa.QueueWaitPct, sa.CPUPct, sa.DevicePct)
	}
	if sum := sa.QueueWaitPct + sa.CPUPct + sa.DevicePct; math.Abs(sum-100) > 1e-6 {
		t.Fatalf("coarse shares sum to %.4f, want 100", sum)
	}
	if got := sa.Ops[0].DeviceUS; math.Abs(got-5) > 1e-9 { // 10 × 500ns
		t.Fatalf("derived device time = %.3fus, want 5", got)
	}
}

func TestFolderAutoFlushEvery(t *testing.T) {
	p := NewProfile()
	f := p.NewFolder(testOpName)
	for i := 0; i < folderFlushEvery; i++ {
		f.Fold(2, "msg::/b", 0, 100, 10, 10, false)
	}
	if f.Pending() != 0 {
		t.Fatalf("Pending = %d after %d folds, want auto-flush at threshold", f.Pending(), folderFlushEvery)
	}
	snap := p.Snapshot()
	if len(snap) != 1 || snap[0].Requests != int64(folderFlushEvery) {
		t.Fatalf("Snapshot after auto-flush = %+v", snap)
	}
}

func TestFolderMultipleStacksAndOps(t *testing.T) {
	p := NewProfile()
	f := p.NewFolder(testOpName)
	// Interleave two stacks and two ops to defeat the cached-slot fast path.
	for i := 0; i < 100; i++ {
		f.Fold(1, "fs::/a", 1, 1000, 100, 100, false)
		f.Fold(2, "kv::/b", 2, 2000, 200, 200, false)
	}
	f.Flush()
	snap := p.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("stacks = %d, want 2", len(snap))
	}
	for _, sa := range snap {
		if sa.Requests != 100 {
			t.Fatalf("stack %s requests = %d, want 100", sa.Stack, sa.Requests)
		}
	}
}

func TestProfileFoldSpansStageShares(t *testing.T) {
	p := NewProfile()
	f := p.NewFolder(testOpName)
	// Sampled traces: wait 300 (ipc 100 inside it), stages io=500, cpu charge 200.
	for i := 0; i < 50; i++ {
		tr := Trace{
			ReqID: uint64(i), Op: "write", Stack: "fs::/a", StackID: 1,
			Arrival: 0, Start: 300, End: 1000,
			QueueWait: 300, CPU: 200,
			Spans: []Span{
				{Stage: "ipc", Cost: 100},
				{Stage: "mod/fs", Cost: 200},
				{Stage: "device", Cost: 500},
			},
		}
		p.FoldSpans(1, "fs::/a", tr)
		f.Fold(1, "fs::/a", 3, 1000, 300, 200, false)
	}
	f.Flush()
	snap := p.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("stacks = %d, want 1", len(snap))
	}
	sa := snap[0]
	if sa.Sampled != 50 {
		t.Fatalf("Sampled = %d, want 50", sa.Sampled)
	}
	var sum float64
	var stages []string
	for _, st := range sa.Stages {
		sum += st.SharePct
		stages = append(stages, st.Stage)
	}
	// ipc 100 + mod 200 + device 500 + queue_wait (300-100=200) = 1000 = full latency.
	if math.Abs(sum-100) > 0.01 {
		t.Fatalf("stage shares sum to %.3f%% (stages %v), want ~100", sum, stages)
	}
	found := map[string]StageAttribution{}
	for _, st := range sa.Stages {
		found[st.Stage] = st
	}
	qw, ok := found[QueueWaitStage]
	if !ok {
		t.Fatalf("missing %q pseudo-stage in %v", QueueWaitStage, stages)
	}
	if math.Abs(qw.SharePct-20) > 0.01 {
		t.Fatalf("queue_wait share = %.3f%%, want 20 (wait minus ipc)", qw.SharePct)
	}
	if dev := found["device"]; math.Abs(dev.SharePct-50) > 0.01 {
		t.Fatalf("device share = %.3f%%, want 50", dev.SharePct)
	}
	// Rows sorted by descending share: device first.
	if sa.Stages[0].Stage != "device" {
		t.Fatalf("stages[0] = %s, want device (sorted by share)", sa.Stages[0].Stage)
	}
}

func TestTailEstimatorConvergence(t *testing.T) {
	te := NewTailEstimator(0.99)
	rng := rand.New(rand.NewSource(42))
	// Exponential latency distribution, mean 1000ns: p99 = -ln(0.01)*1000 ≈ 4605ns.
	n := 200000
	outliers := 0
	for i := 0; i < n; i++ {
		x := rng.ExpFloat64() * 1000
		if te.Observe(x) {
			outliers++
		}
	}
	wantP99 := -math.Log(0.01) * 1000
	if est := te.Estimate(); est < wantP99*0.7 || est > wantP99*1.4 {
		t.Fatalf("estimate = %.0fns, want ≈%.0fns (p99 of Exp(1000))", est, wantP99)
	}
	// Retention rate should be on the order of 1%: between 0.3% and 3%.
	rate := float64(outliers) / float64(n)
	if rate < 0.003 || rate > 0.03 {
		t.Fatalf("outlier rate = %.4f, want ≈0.01", rate)
	}
	if te.Count() != int64(n) {
		t.Fatalf("Count = %d, want %d", te.Count(), n)
	}
}

func TestTailEstimatorWarmup(t *testing.T) {
	te := NewTailEstimator(0)
	if te.Quantile() != DefaultTailQuantile {
		t.Fatalf("Quantile = %v, want default %v", te.Quantile(), DefaultTailQuantile)
	}
	// During warmup nothing is an outlier, even huge values.
	for i := 0; i < tailWarmup; i++ {
		if te.Observe(1e9) {
			t.Fatalf("outlier flagged during warmup (obs %d)", i)
		}
	}
	// Post-warmup, a value above the (mean-seeded) estimate is flagged.
	if !te.Observe(2e9) {
		t.Fatal("post-warmup outlier not flagged")
	}
}

func TestTailEstimatorTracksDrift(t *testing.T) {
	te := NewTailEstimator(0.99)
	for i := 0; i < 5000; i++ {
		te.Observe(1000)
	}
	low := te.Estimate()
	// Workload shifts 10×: the estimate must follow.
	for i := 0; i < 5000; i++ {
		te.Observe(10000)
	}
	if te.Estimate() < low*2 {
		t.Fatalf("estimate did not track drift: %.0f -> %.0f", low, te.Estimate())
	}
}

func TestTracerTailRing(t *testing.T) {
	tr := NewTracer()
	for i := uint64(1); i <= 100; i++ {
		tr.Capture(mkTrace(i), false, true)
	}
	if tr.TailCaptured() != 100 || tr.Captured() != 0 {
		t.Fatalf("TailCaptured = %d, Captured = %d; want 100 and 0", tr.TailCaptured(), tr.Captured())
	}
	tail := tr.RecentTail()
	if len(tail) != TailRing {
		t.Fatalf("tail retained %d, want %d", len(tail), TailRing)
	}
	// Oldest-first across the wrap boundary: 37..100.
	for i, tc := range tail {
		if want := uint64(100 - TailRing + 1 + i); tc.ReqID != want {
			t.Fatalf("tail[%d].ReqID = %d, want %d", i, tc.ReqID, want)
		}
	}
}

// TestErrorRingWrapOrdering (satellite: S3) pins RecentErrors ordering across
// the wrap boundary: 100 errored traces through a 64-slot ring must read
// back as IDs 37..100, oldest first.
func TestErrorRingWrapOrdering(t *testing.T) {
	tr := NewTracer()
	for i := uint64(1); i <= 100; i++ {
		tc := mkTrace(i)
		tc.Err = "boom"
		tr.Capture(tc, i%2 == 0, false) // sampled or not
	}
	if tr.ErrorsCaptured() != 100 {
		t.Fatalf("ErrorsCaptured = %d, want 100", tr.ErrorsCaptured())
	}
	errs := tr.RecentErrors()
	if len(errs) != ErrorRing {
		t.Fatalf("error ring retained %d, want %d", len(errs), ErrorRing)
	}
	for i, tc := range errs {
		if want := uint64(100 - ErrorRing + 1 + i); tc.ReqID != want {
			t.Fatalf("errs[%d].ReqID = %d, want %d (not oldest-first across wrap)", i, tc.ReqID, want)
		}
	}
}

// TestTracerConcurrentCaptureRaces (satellite: S3) hammers sampled,
// unsampled-error and tail captures from concurrent goroutines while readers
// drain all three rings; run under -race this is the wraparound race test.
func TestTracerConcurrentCaptureRaces(t *testing.T) {
	tr := NewTracer()
	const writers = 4
	const perWriter = 500
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tc := mkTrace(uint64(wr*perWriter + i))
				switch i % 3 {
				case 0:
					tc.Err = "x"
					tr.Capture(tc, true, false)
				case 1:
					tc.Err = "y"
					tr.Capture(tc, false, false)
				case 2:
					tr.Capture(tc, false, true)
				}
			}
		}(wr)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 200; i++ {
			_ = tr.Recent()
			_ = tr.RecentErrors()
			_ = tr.RecentTail()
		}
	}()
	wg.Wait()
	<-readerDone
	// Cases 0 and 1 both land in the error ring.
	perWriterErrs := 0
	for i := 0; i < perWriter; i++ {
		if i%3 != 2 {
			perWriterErrs++
		}
	}
	wantErrs := int64(writers * perWriterErrs)
	if got := tr.ErrorsCaptured(); got != wantErrs {
		t.Fatalf("ErrorsCaptured = %d, want %d", got, wantErrs)
	}
	if errs := tr.RecentErrors(); len(errs) != ErrorRing {
		t.Fatalf("error ring retained %d, want full %d", len(errs), ErrorRing)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	traces := []Trace{
		mkTrace(1), // sampled: has spans
		{ // tail-retained: no spans, anatomy synthesized
			ReqID: 2, Op: "read", Stack: "fs::/t", StackID: 7, Worker: 1,
			Arrival: 100, Start: 400, End: 2400,
			QueueWait: 300, CPU: vtime.Duration(500),
			Err: "timeout",
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var metas, phases int
	synth := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			phases++
			if ev.PID == 7 {
				synth[ev.Name] = true
				if ev.Dur < 0 {
					t.Fatalf("negative duration in %+v", ev)
				}
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if metas < 3 { // 2 process_name + ≥1 thread_name
		t.Fatalf("metadata events = %d, want >= 3", metas)
	}
	if phases == 0 {
		t.Fatal("no X events exported")
	}
	// The span-less trace must synthesize the coarse anatomy.
	for _, want := range []string{"queue_wait", "cpu", "device"} {
		if !synth[want] {
			t.Fatalf("synthesized anatomy missing %q (got %v)", want, synth)
		}
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatalf("WriteChromeTrace(nil): %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export invalid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("empty export missing traceEvents key")
	}
}
