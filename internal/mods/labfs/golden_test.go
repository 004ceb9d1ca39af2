package labfs

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// entryGoldens are LabFS log payloads as they sit in the on-device log,
// one per entry kind plus the edge values of each field. The wal package's
// golden log image carries the same payloads.
var entryGoldens = []struct {
	ent logEntry
	hex string
}{
	{logEntry{Seq: 1, Op: logCreate, Path: "a/b/c.txt", Mode: 0644, UID: 1000, GID: 1000}, "010109612f622f632e74787400a403d00fd00f000000"},
	{logEntry{Seq: 2, Op: logMkdir, Path: "dir", Mode: 0755}, "02020364697200ed030000000000"},
	{logEntry{Seq: 3, Op: logUnlink, Path: "a/b/c.txt"}, "030309612f622f632e74787400000000000000"},
	{logEntry{Seq: 4, Op: logRmdir, Path: "dir"}, "04040364697200000000000000"},
	{logEntry{Seq: 5, Op: logRename, Path: "old name", Path2: "новое/имя"}, "0505086f6c64206e616d6511d0bdd0bed0b2d0bed0b52fd0b8d0bcd18f000000000000"},
	{logEntry{Seq: 6, Op: logTruncate, Path: "f", Size: 1 << 40}, "06060166000000000000808080808040"},
	{logEntry{Seq: 7, Op: logExtent, Path: "f", BlockIdx: 9_999_999, Phys: 123_456_789}, "0707016600000000fed9c409aab4de7500"},
	{logEntry{Seq: 8, Op: logSetSize, Path: "f"}, "0808016600000000000000"},
	{logEntry{Seq: 1 << 60, Op: logExtent, Path: "x", UID: -1, GID: -7, BlockIdx: -5, Phys: -9, Size: -1}, "8080808080808080100701780000010d091101"},
}

// TestEntryGoldens: each golden payload decodes to its entry, and the entry
// encodes to the golden bytes.
func TestEntryGoldens(t *testing.T) {
	for _, g := range entryGoldens {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendEntry(nil, &g.ent); !bytes.Equal(got, want) {
			t.Errorf("%+v encodes to %x, want %s", g.ent, got, g.hex)
		}
		if got, err := decodeEntry(want); err != nil || !reflect.DeepEqual(got, g.ent) {
			t.Errorf("%s decodes to %+v, %v; want %+v", g.hex, got, err, g.ent)
		}
	}
}
