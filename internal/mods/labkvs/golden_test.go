package labkvs

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// recordGoldens are LabKVS log payloads as they sit in the on-device log:
// a live key, a multi-block value, negative owner and a tombstone. The wal
// package's golden log image carries the same payloads.
var recordGoldens = []struct {
	rec *record
	hex string
}{
	{&record{Key: "k", Size: 4096, Blocks: []int64{2048}}, "016b80200180100000"},
	{&record{Key: "multi/block", Size: 10000, Blocks: []int64{9, 1 << 40, 7}, Owner: 1000}, "0b6d756c74692f626c6f636b904e030980808080802007d00f00"},
	{&record{Key: "", Size: 0, Owner: -1}, "0000000100"},
	{&record{Key: "gone", Dead: true}, "04676f6e6500000001"},
}

// TestRecordGoldens: each golden payload decodes to its record, and the
// record encodes to the golden bytes.
func TestRecordGoldens(t *testing.T) {
	for _, g := range recordGoldens {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRecord(nil, g.rec); !bytes.Equal(got, want) {
			t.Errorf("%+v encodes to %x, want %s", g.rec, got, g.hex)
		}
		if got, err := decodeRecord(want); err != nil || !reflect.DeepEqual(got, g.rec) {
			t.Errorf("%s decodes to %+v, %v; want %+v", g.hex, got, err, g.rec)
		}
	}
}
