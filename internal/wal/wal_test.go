package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

var testPad = telemetry.CopySite("wal.test_pad")

// sinkMod is a terminal block module writing straight to a device.
type sinkMod struct {
	core.Base
	dev *device.Device
}

func (s *sinkMod) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: "test.sink", Consumes: core.APIBlock, Produces: core.APIDriver}
}

func (s *sinkMod) Process(e *core.Exec, req *core.Request) error {
	switch req.Op {
	case core.OpBlockWrite:
		_, err := s.dev.WriteAt(req.Data, req.Offset)
		return err
	case core.OpBlockRead:
		_, err := s.dev.ReadAt(req.Data, req.Offset)
		return err
	}
	return nil
}

func (s *sinkMod) EstProcessingTime(core.Op, int) vtime.Duration { return 0 }

// headMod invokes a test callback with the module's executor context: the
// position an owning mod occupies when it drives its log.
type headMod struct {
	core.Base
	fn func(e *core.Exec, req *core.Request) error
}

func (h *headMod) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: "test.head", Consumes: core.APIAny, Produces: core.APIBlock}
}

func (h *headMod) Process(e *core.Exec, req *core.Request) error { return h.fn(e, req) }

func (h *headMod) EstProcessingTime(core.Op, int) vtime.Duration { return 0 }

// drive runs fn in a module context above a device-backed sink.
func drive(t *testing.T, dev *device.Device, fn func(e *core.Exec, req *core.Request) error) {
	t.Helper()
	reg := core.NewRegistry()
	reg.Register("head", &headMod{fn: fn})
	reg.Register("sink", &sinkMod{dev: dev})
	st := core.NewStack("m", core.Rules{}, []core.Vertex{
		{UUID: "head", Outputs: []string{"sink"}},
		{UUID: "sink"},
	})
	e := core.NewExec(reg, nil, nil, 0)
	req := core.NewRequest(core.OpNop)
	if err := e.Submit(st, req); err != nil {
		t.Fatal(err)
	}
	if req.Err != nil {
		t.Fatal(req.Err)
	}
}

// appendAll appends recs to l and flushes.
func appendAll(t *testing.T, dev *device.Device, l *Log, recs [][]byte, snap Snapshot) {
	t.Helper()
	drive(t, dev, func(e *core.Exec, req *core.Request) error {
		for _, rec := range recs {
			if err := l.Append(e, req, rec, snap); err != nil {
				return err
			}
		}
		return l.Flush(e, req)
	})
}

// replay replays dev's log into l and returns copies of the records.
func replay(t *testing.T, dev *device.Device, l *Log) [][]byte {
	t.Helper()
	var got [][]byte
	drive(t, dev, func(e *core.Exec, req *core.Request) error {
		return l.Replay(e, req, func(rec []byte) error {
			got = append(got, append([]byte{}, rec...))
			return nil
		})
	})
	return got
}

// numbered returns n distinct records "<prefix>-<i>".
func numbered(prefix string, n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("%s-%04d", prefix, i))
	}
	return recs
}

func frameCases() [][]byte {
	return [][]byte{
		[]byte("a/b/c.txt"),
		{},
		{0, 0, 0},
		{recMagic, 0xFF, 0x00},
		[]byte("новое/имя"),
		bytes.Repeat([]byte{0x5A}, 300),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var packed []byte
	for _, rec := range frameCases() {
		fr := appendFrame(nil, rec)
		got, n, torn := decodeFrame(fr)
		if torn || n != len(fr) || !bytes.Equal(got, rec) {
			t.Fatalf("decode %q: got %q n=%d len=%d torn=%v", rec, got, n, len(fr), torn)
		}
		packed = appendFrame(packed, rec)
	}
	// Sequential decode of a packed block with zero padding at the end.
	packed = append(packed, make([]byte, 64)...)
	var out [][]byte
	for off := 0; ; {
		rec, n, torn := decodeFrame(packed[off:])
		if torn {
			t.Fatalf("unexpected torn record at offset %d", off)
		}
		if n == 0 {
			break
		}
		out = append(out, rec)
		off += n
	}
	if !reflect.DeepEqual(out, frameCases()) {
		t.Fatalf("packed decode mismatch: %q", out)
	}
}

func TestFrameTornDetection(t *testing.T) {
	fr := appendFrame(nil, []byte("torn-path"))
	flip := func(i int) []byte {
		cp := append([]byte(nil), fr...)
		cp[i] ^= 0xFF
		return cp
	}
	for _, row := range []struct {
		name string
		b    []byte
	}{
		{"bad magic", flip(0)},
		{"length past the block", flip(1)},
		{"payload corruption", flip(logFmt.Header() + 3)},
		{"checksum corruption", flip(5)},
		{"truncated frame", fr[:len(fr)-2]},
		{"truncated header", fr[:logFmt.Header()-1]},
	} {
		if _, _, torn := decodeFrame(row.b); !torn {
			t.Errorf("%s not detected", row.name)
		}
	}
	if _, n, torn := decodeFrame(make([]byte, 32)); torn || n != 0 {
		t.Fatal("zero padding must read as the end of the block's records")
	}
	if rec, n, torn := decodeFrame(fr); torn || n != len(fr) || string(rec) != "torn-path" {
		t.Fatal("control: pristine frame must decode")
	}
}

func TestAppendFlushReplay(t *testing.T) {
	dev := device.New("d", device.NVMe, 16<<20)
	recs := numbered("rec", 300)
	appendAll(t, dev, New(4096, 64, testPad), recs, nil)

	// Replay from the same device recovers every record in order.
	l2 := New(4096, 64, testPad)
	if got := replay(t, dev, l2); !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %d records, want the %d appended", len(got), len(recs))
	}
	// Appends resume after the last replayed record.
	more := []byte("after-replay")
	appendAll(t, dev, l2, [][]byte{more}, nil)
	got := replay(t, dev, New(4096, 64, testPad))
	if len(got) != 301 || !bytes.Equal(got[300], more) {
		t.Fatalf("after resuming: %d records, last %q", len(got), got[len(got)-1])
	}
}

// TestOverflowDetected: without a snapshot the log cannot checkpoint, and an
// append past its region fails instead of writing beyond it.
func TestOverflowDetected(t *testing.T) {
	dev := device.New("d", device.NVMe, 16<<20)
	l := New(4096, 2, testPad) // two-block log
	var err error
	drive(t, dev, func(e *core.Exec, req *core.Request) error {
		for i := 0; i < 500 && err == nil; i++ {
			err = l.Append(e, req, []byte("some/long/path/name"), nil)
		}
		return nil
	})
	if !errors.Is(err, ErrFull) {
		t.Fatalf("log overflow: %v, want ErrFull", err)
	}
	// Nothing reached the block past the region.
	blk := make([]byte, 4096)
	dev.ReadAt(blk, 2*4096)
	if !bytes.Equal(blk, make([]byte, 4096)) {
		t.Fatal("overflowing log wrote past its region")
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	dev := device.New("d", device.NVMe, 16<<20)
	l := New(256, 8, testPad)
	for _, row := range []struct {
		size int
		ok   bool
	}{
		{256 - blockHeader - logFmt.Header(), true},
		{256 - blockHeader - logFmt.Header() + 1, false},
		{300, false},
	} {
		var err error
		drive(t, dev, func(e *core.Exec, req *core.Request) error {
			err = l.Append(e, req, bytes.Repeat([]byte{'x'}, row.size), nil)
			return nil
		})
		if (err == nil) != row.ok {
			t.Errorf("%d-byte record in a 256-byte block: err %v", row.size, err)
		}
	}
}

// gateSink is a terminal block module whose FIRST OpBlockWrite parks until
// released, simulating a slow device write.
type gateSink struct {
	sinkMod
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *gateSink) Process(e *core.Exec, req *core.Request) error {
	if req.Op == core.OpBlockWrite {
		s.once.Do(func() {
			close(s.entered)
			<-s.release
		})
	}
	return s.sinkMod.Process(e, req)
}

// TestConcurrentAppendNotSerialized: worker A fills a log block and stalls
// inside the downstream device write; worker B's Append of a buffered
// record must complete while A is still stalled.
func TestConcurrentAppendNotSerialized(t *testing.T) {
	dev := device.New("d", device.NVMe, 16<<20)
	gate := &gateSink{sinkMod: sinkMod{dev: dev}, entered: make(chan struct{}), release: make(chan struct{})}
	l := New(4096, 64, testPad)

	filler := []byte(strings.Repeat("x", 100))
	reg := core.NewRegistry()
	reg.Register("head", &headMod{fn: func(e *core.Exec, req *core.Request) error {
		if req.Path == "fill" {
			// Enough appends to fill a block and trigger the gated write.
			for i := 0; i < 60; i++ {
				if err := l.Append(e, req, filler, nil); err != nil {
					return err
				}
			}
			return nil
		}
		return l.Append(e, req, []byte("quick"), nil)
	}})
	reg.Register("sink", gate)
	st := core.NewStack("m", core.Rules{}, []core.Vertex{
		{UUID: "head", Outputs: []string{"sink"}},
		{UUID: "sink"},
	})
	submit := func(path string, worker int, done chan<- error) {
		req := core.NewRequest(core.OpNop)
		req.Path = path
		err := core.NewExec(reg, nil, nil, worker).Submit(st, req)
		if err == nil {
			err = req.Err
		}
		done <- err
	}

	fillDone := make(chan error, 1)
	go submit("fill", 0, fillDone)
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("filler never reached the device write")
	}

	// A is parked inside the downstream write. B's buffered append must not
	// serialize behind it.
	quickDone := make(chan error, 1)
	go submit("quick", 1, quickDone)
	select {
	case err := <-quickDone:
		if err != nil {
			t.Fatalf("concurrent append failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append serialized behind the in-flight log block write")
	}

	close(gate.release)
	if err := <-fillDone; err != nil {
		t.Fatalf("filler: %v", err)
	}
}

// appendConcurrently runs one appender per goroutine, each appending its
// own numbered records, and returns the first error.
func appendConcurrently(dev *device.Device, l *Log, goroutines, n int, snap Snapshot) error {
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			reg := core.NewRegistry()
			reg.Register("head", &headMod{fn: func(e *core.Exec, req *core.Request) error {
				for _, rec := range numbered(fmt.Sprintf("g%d", g), n) {
					if err := l.Append(e, req, rec, snap); err != nil {
						return err
					}
				}
				return nil
			}})
			reg.Register("sink", &sinkMod{dev: dev})
			st := core.NewStack("m", core.Rules{}, []core.Vertex{
				{UUID: "head", Outputs: []string{"sink"}},
				{UUID: "sink"},
			})
			req := core.NewRequest(core.OpNop)
			err := core.NewExec(reg, nil, nil, g).Submit(st, req)
			if err == nil {
				err = req.Err
			}
			errs <- err
		}(g)
	}
	var first error
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TestConcurrentAppendsReplay: records appended from several goroutines at
// once all replay, each goroutine's in its order; with checkpoints racing
// the appends, replay starts with the last snapshot and returns nothing
// that was not appended.
func TestConcurrentAppendsReplay(t *testing.T) {
	dev := device.New("d", device.NVMe, 4<<20)
	l := New(4096, 64, testPad)
	if err := appendConcurrently(dev, l, 4, 300, nil); err != nil {
		t.Fatal(err)
	}
	appendAll(t, dev, l, nil, nil)
	next := map[byte]int{}
	for _, rec := range replay(t, dev, New(4096, 64, testPad)) {
		g := rec[1]
		if want := fmt.Sprintf("g%c-%04d", g, next[g]); string(rec) != want {
			t.Fatalf("replayed %q, want %q", rec, want)
		}
		next[g]++
	}
	for g := byte('0'); g < '4'; g++ {
		if next[g] != 300 {
			t.Fatalf("goroutine %c: %d of 300 records replayed", g, next[g])
		}
	}

	dev = device.New("d", device.NVMe, 4<<20)
	l = New(256, 8, testPad)
	state := []byte("state")
	if err := appendConcurrently(dev, l, 4, 300, snapshotOf([][]byte{state})); err != nil {
		t.Fatal(err)
	}
	appendAll(t, dev, l, nil, nil)
	got := replay(t, dev, New(256, 8, testPad))
	if l.lap < 2 || len(got) == 0 || !bytes.Equal(got[0], state) {
		t.Fatalf("lap %d, replay after racing checkpoints starts %q", l.lap, got)
	}
	for _, rec := range got[1:] {
		if !bytes.Equal(rec, state) && (len(rec) != 7 || rec[0] != 'g') {
			t.Fatalf("replayed %q, which was never appended", rec)
		}
	}
}

func TestTornTailStopsCleanly(t *testing.T) {
	dev := device.New("torn", device.NVMe, 1<<20)
	appendAll(t, dev, New(4096, 16, testPad), numbered("ok", 10), nil)
	// Corrupt the middle of the flushed block (torn write).
	dev.WriteAt([]byte(`{"broken`), 80)
	got := replay(t, dev, New(4096, 16, testPad))
	// Records before the tear survive; the scan stops at the corruption.
	if len(got) == 0 || len(got) >= 10 || !reflect.DeepEqual(got, numbered("ok", len(got))) {
		t.Fatalf("torn-tail replay returned %q", got)
	}
}

// TestCrashReplayPrefix tears the log mid-record and checks replay recovers
// exactly the records before the tear.
func TestCrashReplayPrefix(t *testing.T) {
	dev := device.New("crash", device.NVMe, 1<<20)
	recs := numbered("prefix-entry", 12)
	appendAll(t, dev, New(4096, 16, testPad), recs, nil)
	// Zero the tail of the block from the middle of record 7 (0-based) on:
	// everything from there reads as a torn write.
	fr := len(appendFrame(nil, recs[0]))
	tear := int64(blockHeader + 7*fr + fr/2)
	dev.WriteAt(make([]byte, 4096-int(tear)), tear)
	if got := replay(t, dev, New(4096, 16, testPad)); !reflect.DeepEqual(got, recs[:7]) {
		t.Fatalf("crash replay recovered %q, want the 7 records before the tear", got)
	}
}

// TestReplayAfterTornTailKeepsLog: replay stopping at a torn record still
// sets the append position, so the next flush continues the log after the
// last good record instead of rewriting block 0.
func TestReplayAfterTornTailKeepsLog(t *testing.T) {
	dev := device.New("d", device.NVMe, 4<<20)
	recs := numbered("entry", 300)
	appendAll(t, dev, New(4096, 64, testPad), recs, nil)
	// Tear the last record: flip its final payload byte.
	l := New(4096, 64, testPad)
	last := recs[len(recs)-1]
	var blk []byte
	for b := int64(0); ; b++ {
		blk = make([]byte, 4096)
		dev.ReadAt(blk, b*4096)
		if i := bytes.Index(blk, last); i >= 0 {
			dev.WriteAt([]byte{^last[len(last)-1]}, b*4096+int64(i+len(last)-1))
			break
		}
	}
	if got := replay(t, dev, l); !reflect.DeepEqual(got, recs[:299]) {
		t.Fatalf("replay of a torn tail: %d records, want 299", len(got))
	}
	appendAll(t, dev, l, [][]byte{[]byte("new")}, nil)
	got := replay(t, dev, New(4096, 64, testPad))
	if want := append(recs[:299:299], []byte("new")); !reflect.DeepEqual(got, want) {
		t.Fatalf("after append+flush: %d records, want %d", len(got), len(want))
	}
}

// snapshotOf returns a Snapshot emitting recs.
func snapshotOf(recs [][]byte) Snapshot {
	return func(emit func([]byte) error) error {
		for _, rec := range recs {
			if err := emit(rec); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestCheckpointStartsNewLap: a log near the end of its region checkpoints
// from the owner's snapshot, and replay returns the snapshot plus what was
// appended after it. The previous lap's records beyond the new lap's head
// are still on the device; replay must not read into them.
func TestCheckpointStartsNewLap(t *testing.T) {
	dev := device.New("d", device.NVMe, 1<<20)
	l := New(256, 8, testPad)
	state := [][]byte{[]byte("state-a"), []byte("state-b")}
	churn := numbered("churn-record-with-some-length", 200)
	var got [][]byte
	for i := 0; l.lap == 1; i++ {
		appendAll(t, dev, l, churn[i:i+1], snapshotOf(state))
		got = append(got, churn[i])
	}
	if l.lap != 2 {
		t.Fatalf("lap %d after filling the region", l.lap)
	}
	// The checkpoint ran before the record that triggered it.
	want := append(append([][]byte{}, state...), got[len(got)-1])
	if r := replay(t, dev, New(256, 8, testPad)); !reflect.DeepEqual(r, want) {
		t.Fatalf("replay after checkpoint: %q, want %q", r, want)
	}
}

// TestEmptyCheckpointHidesOldLap: a snapshot with no records still stamps
// the new lap on block 0, so the old lap reads as gone.
func TestEmptyCheckpointHidesOldLap(t *testing.T) {
	dev := device.New("d", device.NVMe, 1<<20)
	l := New(256, 8, testPad)
	appendAll(t, dev, l, numbered("old-lap-record-padding", 30), nil)
	drive(t, dev, func(e *core.Exec, req *core.Request) error {
		l.mu.Lock()
		l.head = l.blocks - 2
		l.mu.Unlock()
		return l.Append(e, req, []byte("after"), snapshotOf(nil))
	})
	if got := replay(t, dev, New(256, 8, testPad)); len(got) != 0 {
		t.Fatalf("replay after an empty checkpoint: %q, want nothing", got)
	}
	appendAll(t, dev, l, nil, nil)
	if got := replay(t, dev, New(256, 8, testPad)); !reflect.DeepEqual(got, [][]byte{[]byte("after")}) {
		t.Fatalf("replay after the next flush: %q", got)
	}
}

// TestStaleImageDroppedAfterCheckpoint: a block image detached before a
// checkpoint and written after the checkpoint's image of the same block is
// dropped, so it cannot overwrite the new lap.
func TestStaleImageDroppedAfterCheckpoint(t *testing.T) {
	dev := device.New("d", device.NVMe, 1<<20)
	l := New(4096, 16, testPad)
	l.buf = appendFrame(l.buf, []byte("old-lap"))
	staleImg, staleAt, staleVer := l.detach()

	state := [][]byte{[]byte("checkpointed")}
	drive(t, dev, func(e *core.Exec, req *core.Request) error {
		l.mu.Lock()
		l.head = l.blocks - 2
		l.mu.Unlock()
		if err := l.Append(e, req, []byte("after"), snapshotOf(state)); err != nil {
			return err
		}
		if err := l.Flush(e, req); err != nil {
			return err
		}
		return l.writeVersioned(e, req, staleAt, staleVer, staleImg)
	})
	want := [][]byte{[]byte("checkpointed"), []byte("after")}
	if got := replay(t, dev, New(4096, 16, testPad)); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay: %q, want %q", got, want)
	}
}

// TestRejectedRecordStopsReplay: a record the owner cannot decode stops the
// replay there, as a torn one does, and appends resume before it.
func TestRejectedRecordStopsReplay(t *testing.T) {
	dev := device.New("d", device.NVMe, 1<<20)
	appendAll(t, dev, New(4096, 16, testPad), [][]byte{[]byte("good"), []byte("bad"), []byte("lost")}, nil)
	l := New(4096, 16, testPad)
	var got []string
	drive(t, dev, func(e *core.Exec, req *core.Request) error {
		return l.Replay(e, req, func(rec []byte) error {
			if string(rec) == "bad" {
				return errors.New("undecodable")
			}
			got = append(got, string(rec))
			return nil
		})
	})
	if !reflect.DeepEqual(got, []string{"good"}) {
		t.Fatalf("replay past a rejected record: %q", got)
	}
	appendAll(t, dev, l, [][]byte{[]byte("next")}, nil)
	if r := replay(t, dev, New(4096, 16, testPad)); !reflect.DeepEqual(r, [][]byte{[]byte("good"), []byte("next")}) {
		t.Fatalf("after resuming: %q", r)
	}
}

// jsonPackAndReplay runs records through the retired JSON-lines log's pack
// (one JSON line per record, a block flushed when the next line does not
// fit, zero padding) and replay (split lines, trim NULs, stop at the first
// unparsable line).
func jsonPackAndReplay(recs [][]byte, blockSize int) [][]byte {
	var blocks [][]byte
	var buf []byte
	for _, rec := range recs {
		line, _ := json.Marshal(rec)
		line = append(line, '\n')
		if len(buf)+len(line) > blockSize {
			blk := make([]byte, blockSize)
			copy(blk, buf)
			blocks = append(blocks, blk)
			buf = nil
		}
		buf = append(buf, line...)
	}
	blk := make([]byte, blockSize)
	copy(blk, buf)
	blocks = append(blocks, blk)

	var out [][]byte
	for _, data := range blocks {
		if data[0] == 0 {
			break
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			line = bytes.TrimRight(line, "\x00")
			if len(line) == 0 {
				continue
			}
			var rec []byte
			if err := json.Unmarshal(line, &rec); err != nil {
				return out
			}
			out = append(out, rec)
		}
	}
	return out
}

// TestReplayEquivalentToJSONLines: the same append sequence recovers the
// same records through the binary log on a device as through the retired
// JSON-lines pack/replay algorithm.
func TestReplayEquivalentToJSONLines(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 200; i++ {
		for _, rec := range frameCases() {
			recs = append(recs, append(rec[:len(rec):len(rec)], byte(i)))
		}
	}
	dev := device.New("eq", device.NVMe, 16<<20)
	appendAll(t, dev, New(4096, 256, testPad), recs, nil)
	viaWAL := replay(t, dev, New(4096, 256, testPad))
	viaJSON := jsonPackAndReplay(recs, 4096)
	if !reflect.DeepEqual(viaWAL, viaJSON) || len(viaWAL) != len(recs) {
		t.Fatalf("replay mismatch: wal %d records, json %d, appended %d", len(viaWAL), len(viaJSON), len(recs))
	}
}

// FuzzWALReplay appends records cut from the input to a small log, lays
// arbitrary bytes over its region and replays it. Replay must not panic,
// and what it returns must be a prefix of what was appended: a record
// comes back only through a frame whose checksum holds.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte("hello world, this is a log"), uint16(0), []byte{})
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz"), uint16(30), []byte{0, 0, 0})
	f.Add([]byte("records"), uint16(2), []byte{9, 9, 9, 9})
	f.Add(bytes.Repeat([]byte("0123456789"), 60), uint16(300), []byte{1})
	// Records of 48 and 57 bytes fill block 0; zero the second one's magic
	// (offset 4+9+48), leaving its nonzero bytes behind as padding.
	f.Add(bytes.Repeat([]byte("0123456789"), 60), uint16(61), []byte{0})
	f.Add(bytes.Repeat([]byte("0123456789"), 60), uint16(128), []byte{9}) // block 1's lap
	f.Fuzz(func(t *testing.T, data []byte, at uint16, junk []byte) {
		const blockSize, blocks = 128, 8
		var recs [][]byte
		for len(data) > 0 {
			n := int(data[0]) % 64
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			recs = append(recs, data[:n])
			data = data[n:]
		}
		dev := device.New("fz", device.NVMe, 1<<20)
		l := New(blockSize, blocks, testPad)
		var appended [][]byte
		drive(t, dev, func(e *core.Exec, req *core.Request) error {
			for _, rec := range recs {
				if l.Append(e, req, rec, nil) != nil {
					break
				}
				appended = append(appended, rec)
			}
			return l.Flush(e, req)
		})
		if off := int(at) % (blockSize * blocks); len(junk) > 0 {
			if off+len(junk) > blockSize*blocks {
				junk = junk[:blockSize*blocks-off]
			}
			dev.WriteAt(junk, int64(off))
		}
		got := replay(t, dev, New(blockSize, blocks, testPad))
		if len(got) > len(appended) {
			t.Fatalf("replayed %d records, appended %d", len(got), len(appended))
		}
		for i, rec := range got {
			if !bytes.Equal(rec, appended[i]) {
				t.Fatalf("record %d: replayed %q, appended %q", i, rec, appended[i])
			}
		}
	})
}
