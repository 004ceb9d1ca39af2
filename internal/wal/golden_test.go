package wal

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"labstor/internal/device"
)

// goldenPayloads are the payload goldens of labfs (entryGoldens, the first
// nine) and labkvs (recordGoldens, the last four): real owner records, as
// opaque to the log as any other.
var goldenPayloads = []string{
	"010109612f622f632e74787400a403d00fd00f000000",
	"02020364697200ed030000000000",
	"030309612f622f632e74787400000000000000",
	"04040364697200000000000000",
	"0505086f6c64206e616d6511d0bdd0bed0b2d0bed0b52fd0b8d0bcd18f000000000000",
	"06060166000000000000808080808040",
	"0707016600000000fed9c409aab4de7500",
	"0808016600000000000000",
	"8080808080808080100701780000010d091101",
	"016b80200180100000",
	"0b6d756c74692f626c6f636b904e030980808080802007d00f00",
	"0000000100",
	"04676f6e6500000001",
}

// goldenImage is the device region of a 4-block log of 128-byte blocks, one
// block per line, after goldenPayloads were appended in order with a
// checkpoint whose snapshot is the one payload 11. The tenth append found
// the region nearly full and checkpointed: block 0 holds lap 2 (the
// snapshot, then appends 10–13), block 1 still holds lap 1's appends 5–8,
// and the block lap 1 was filling when the checkpoint came never reached
// the device.
var goldenImage = []string{
	"02000000a7050000005cc639df0000000100a7090000003f6f563f016b80200180100000a71a00000010425c510b6d756c74692f626c6f636b904e030980808080802007d00f00a7050000005cc639df0000000100a7090000008d761e0804676f6e650000000100000000000000000000000000000000000000000000000000",
	"01000000a7230000004f4e1ab20505086f6c64206e616d6511d0bdd0bed0b2d0bed0b52fd0b8d0bcd18f000000000000a7100000009cc2ac4006060166000000000000808080808040a711000000e83e83fc0707016600000000fed9c409aab4de7500a70b00000022ad6cc30808016600000000000000000000000000000000",
	"0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
}

func goldenRecs(t *testing.T) [][]byte {
	t.Helper()
	recs := make([][]byte, len(goldenPayloads))
	for i, h := range goldenPayloads {
		var err error
		if recs[i], err = hex.DecodeString(h); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// TestGoldenLogImage pins the on-device log format: appending the golden
// payloads writes the golden image byte for byte, and replaying the image
// returns lap 2's records and stops at lap 1's leftovers.
func TestGoldenLogImage(t *testing.T) {
	const blockSize, blocks = 128, 4
	recs := goldenRecs(t)
	dev := device.New("golden", device.NVMe, 1<<20)
	appendAll(t, dev, New(blockSize, blocks, testPad), recs, snapshotOf(recs[11:12]))
	img := make([]byte, blockSize*blocks)
	dev.ReadAt(img, 0)
	for b := range blocks {
		if got := hex.EncodeToString(img[b*blockSize : (b+1)*blockSize]); got != goldenImage[b] {
			t.Errorf("block %d is\n%s\nwant\n%s", b, got, goldenImage[b])
		}
	}

	want, err := hex.DecodeString(strings.Join(goldenImage, ""))
	if err != nil {
		t.Fatal(err)
	}
	dev = device.New("golden", device.NVMe, 1<<20)
	dev.WriteAt(want, 0)
	l := New(blockSize, blocks, testPad)
	got := replay(t, dev, l)
	wantRecs := append([][]byte{recs[11]}, recs[9:]...)
	if len(got) != len(wantRecs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(wantRecs))
	}
	for i := range got {
		if !bytes.Equal(got[i], wantRecs[i]) {
			t.Fatalf("record %d: replayed %x, want %x", i, got[i], wantRecs[i])
		}
	}
	if l.lap != 2 || l.head != 0 {
		t.Fatalf("replay resumes lap %d at block %d, want lap 2 at block 0", l.lap, l.head)
	}
}
