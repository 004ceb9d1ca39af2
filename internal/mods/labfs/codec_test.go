package labfs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/wal"
)

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

// headMod invokes a test callback with the module's executor context: the
// position LabFS itself occupies when it drives its metadata log.
type headMod struct {
	core.Base
	fn func(e *core.Exec, req *core.Request) error
}

func (h *headMod) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: "test.head", Consumes: core.APIAny, Produces: core.APIBlock}
}

func (h *headMod) Process(e *core.Exec, req *core.Request) error { return h.fn(e, req) }

// driveLog runs fn in a module context above a device-backed sink.
func driveLog(t *testing.T, dev *device.Device, fn func(e *core.Exec, req *core.Request) error) {
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

// writeEntries appends ents to a fresh log on dev, numbering them from 1 as
// logAppend does, and flushes.
func writeEntries(t *testing.T, dev *device.Device, blocks int64, ents []logEntry) {
	t.Helper()
	l := wal.New(4096, blocks, copyLogPad)
	driveLog(t, dev, func(e *core.Exec, req *core.Request) error {
		for i, ent := range ents {
			ent.Seq = uint64(i + 1)
			if err := l.Append(e, req, appendEntry(nil, &ent), nil); err != nil {
				return err
			}
		}
		return l.Flush(e, req)
	})
}

// readEntries replays dev's log the way maybeReplay does.
func readEntries(t *testing.T, dev *device.Device, blocks int64) []logEntry {
	t.Helper()
	var out []logEntry
	driveLog(t, dev, func(e *core.Exec, req *core.Request) error {
		return wal.New(4096, blocks, copyLogPad).Replay(e, req, func(rec []byte) error {
			ent, err := decodeEntry(rec)
			if err == nil {
				out = append(out, ent)
			}
			return err
		})
	})
	return out
}

func codecCases() []logEntry {
	return []logEntry{
		{Seq: 1, Op: logCreate, Path: "a/b/c.txt", Mode: 0644, UID: 1000, GID: 1000},
		{Seq: 2, Op: logMkdir, Path: "dir", Mode: 0755},
		{Seq: 3, Op: logUnlink, Path: "a/b/c.txt"},
		{Seq: 4, Op: logRmdir, Path: "dir"},
		{Seq: 5, Op: logRename, Path: "old name with spaces", Path2: "новое/имя"},
		{Seq: 6, Op: logTruncate, Path: "f", Size: 1 << 40},
		{Seq: 7, Op: logExtent, Path: "f", BlockIdx: 9_999_999, Phys: 123_456_789},
		{Seq: 8, Op: logSetSize, Path: "f", Size: 0},
		{Seq: 300, Op: logCreate, Path: "", Mode: 0, UID: -1, GID: -7}, // negative ids zigzag-encode
		{Seq: 1 << 60, Op: logExtent, Path: "x", BlockIdx: -5, Phys: -9, Size: -1},
	}
}

func TestBinaryRecordRoundTrip(t *testing.T) {
	for _, ent := range codecCases() {
		got, err := decodeEntry(appendEntry(nil, &ent))
		if err != nil || !reflect.DeepEqual(got, ent) {
			t.Fatalf("round trip mismatch (%v):\n in: %+v\nout: %+v", err, ent, got)
		}
	}
	// Packed into log blocks on a device and replayed.
	dev := device.New("rt", device.NVMe, 1<<20)
	var ents []logEntry
	for i := 0; i < 100; i++ {
		ents = append(ents, codecCases()...)
	}
	writeEntries(t, dev, 64, ents)
	got := readEntries(t, dev, 64)
	if len(got) != len(ents) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(ents))
	}
	for i, ent := range got {
		want := ents[i]
		want.Seq = uint64(i + 1)
		if ent != want {
			t.Fatalf("entry %d: %+v, want %+v", i, ent, want)
		}
	}
}

// TestBinaryRecordTornDetection: a payload whose frame checksum holds but
// which does not decode as an entry is rejected, and replay stops there,
// as at a torn frame.
func TestBinaryRecordTornDetection(t *testing.T) {
	ent := logEntry{Seq: 42, Op: logCreate, Path: "torn-path", Mode: 0600}
	rec := appendEntry(nil, &ent)
	unknownOp := append([]byte(nil), rec...)
	unknownOp[1] = 0xEE // seq 42 is one varint byte; the op code follows
	for _, row := range []struct {
		name string
		b    []byte
	}{
		{"truncated payload", rec[:len(rec)-2]},
		{"unknown op code", unknownOp},
		{"trailing bytes", append(append([]byte(nil), rec...), 0)},
		{"path longer than the payload", rec[:4]},
		{"empty payload", nil},
	} {
		if _, err := decodeEntry(row.b); err == nil {
			t.Errorf("%s decoded", row.name)
		}
	}
	if got, err := decodeEntry(rec); err != nil || got != ent {
		t.Fatal("control: pristine entry must decode")
	}

	dev := device.New("bad", device.NVMe, 1<<20)
	l := wal.New(4096, 16, copyLogPad)
	driveLog(t, dev, func(e *core.Exec, req *core.Request) error {
		for _, r := range [][]byte{rec, unknownOp, rec} {
			if err := l.Append(e, req, r, nil); err != nil {
				return err
			}
		}
		return l.Flush(e, req)
	})
	if got := readEntries(t, dev, 16); len(got) != 1 || got[0] != ent {
		t.Fatalf("replay past an undecodable entry: %+v", got)
	}
}

// jsonLogEntry mirrors the retired JSON-lines on-device format (op kinds as
// their codes) so the equivalence test can replay a log written the old way.
type jsonLogEntry struct {
	Seq      uint64 `json:"s"`
	Op       logOp  `json:"o"`
	Path     string `json:"p,omitempty"`
	Path2    string `json:"q,omitempty"`
	Mode     uint32 `json:"m,omitempty"`
	UID      int    `json:"u,omitempty"`
	GID      int    `json:"g,omitempty"`
	BlockIdx int64  `json:"b,omitempty"`
	Phys     int64  `json:"f,omitempty"`
	Size     int64  `json:"z,omitempty"`
}

// jsonPackAndReplay runs entries through the old format's exact pack
// (JSON line per entry, blocks flushed when full, zero padding) and replay
// (split lines, trim NULs, stop at first unparsable line) algorithms.
func jsonPackAndReplay(entries []logEntry, blockSize int) []logEntry {
	var blocks [][]byte
	var buf []byte
	for _, ent := range entries {
		line, _ := json.Marshal(jsonLogEntry(ent))
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

	var out []logEntry
	for _, data := range blocks {
		if data[0] == 0 {
			break
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			line = bytes.TrimRight(line, "\x00")
			if len(line) == 0 {
				continue
			}
			var ent jsonLogEntry
			if err := json.Unmarshal(line, &ent); err != nil {
				return out
			}
			out = append(out, logEntry(ent))
		}
	}
	return out
}

// TestBinaryReplayEquivalentToJSON proves the format switch preserved
// replay semantics: the same logical append sequence recovers the same
// entries through the binary pipeline (the write-ahead log on a device) as
// through the retired JSON pack/replay algorithm.
func TestBinaryReplayEquivalentToJSON(t *testing.T) {
	var logical []logEntry
	for i := 0; i < 40; i++ {
		logical = append(logical, codecCases()...)
	}
	dev := device.New("eq", device.NVMe, 16<<20)
	writeEntries(t, dev, 256, logical)
	viaBinary := readEntries(t, dev, 256)

	withSeq := make([]logEntry, len(logical))
	for i, ent := range logical {
		ent.Seq = uint64(i + 1)
		withSeq[i] = ent
	}
	viaJSON := jsonPackAndReplay(withSeq, 4096)

	if !reflect.DeepEqual(viaBinary, viaJSON) {
		t.Fatalf("replay mismatch: binary %d entries, json %d entries", len(viaBinary), len(viaJSON))
	}
}

// TestBinaryCrashReplayPrefix tears the log mid-record and checks replay
// recovers exactly the entries before the tear: the same prefix semantics
// the JSON format's per-line parse gave.
func TestBinaryCrashReplayPrefix(t *testing.T) {
	dev := device.New("crash", device.NVMe, 1<<20)
	ent := logEntry{Op: logCreate, Path: "prefix-entry", Mode: 0644}
	ents := make([]logEntry, 12)
	for i := range ents {
		ents[i] = ent
	}
	writeEntries(t, dev, 16, ents)
	// Zero the tail of the block from inside the eighth entry's path:
	// everything from there on reads as a torn write.
	blk := make([]byte, 4096)
	dev.ReadAt(blk, 0)
	tear := 0
	for i := 0; i < 8; i++ {
		tear += bytes.Index(blk[tear:], []byte(ent.Path)) + 1
	}
	if _, err := dev.WriteAt(make([]byte, 4096-tear), int64(tear)); err != nil {
		t.Fatal(err)
	}
	entries := readEntries(t, dev, 16)
	if len(entries) != 7 {
		t.Fatalf("crash replay recovered %d entries, want the 7 before the tear", len(entries))
	}
	for i, got := range entries {
		if got.Seq != uint64(i+1) || got.Path != ent.Path {
			t.Fatalf("entry %d corrupted: %+v", i, got)
		}
	}
}
