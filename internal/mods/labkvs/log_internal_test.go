package labkvs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	"labstor/internal/mods/modtest"
)

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range []*record{
		{Key: "k", Size: 4096, Blocks: []int64{2048}},
		{Key: "multi/block", Size: 10000, Blocks: []int64{9, 1 << 40, 7}, Owner: 1000},
		{Key: "", Size: 0, Owner: -1},
		{Key: "gone", Dead: true},
	} {
		b := appendRecord(nil, rec)
		got, err := decodeRecord(b)
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip %+v: %+v, %v", rec, got, err)
		}
		for _, bad := range [][]byte{b[:len(b)-1], append(b[:len(b):len(b)], 0)} {
			if _, err := decodeRecord(bad); err == nil {
				t.Fatalf("malformed %x decoded", bad)
			}
		}
	}
}

// TestReplayStopsAtPreviousLap: a key put late in one lap of the log and put
// again after the checkpoint that starts the next must replay to its new
// value. The old lap's record still sits on the device past the new lap's
// end; replaying it would point the key at blocks other keys now hold.
func TestReplayStopsAtPreviousLap(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	attrs := map[string]string{"device": "dev0", "log_mb": "1"}
	s := h.Mount(t, "kv::/k",
		modtest.ChainVertex{UUID: "kvs", Type: Type, Attrs: attrs},
		modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
	put := func(key, val string) {
		r := core.NewRequest(core.OpPut)
		r.Key, r.Data, r.Size = key, []byte(val), len(val)
		if err := h.Run(t, s, r); err != nil {
			t.Fatal(err)
		}
	}
	// Long keys fill the log quickly; "a" is put every 50 puts, so its last
	// put before the checkpoint is late in the first lap.
	// The lap stamped on the log's block 0 moves to 2 at the checkpoint.
	lap := func() uint32 {
		var b [4]byte
		h.Dev.ReadAt(b[:], 0)
		return binary.LittleEndian.Uint32(b[:])
	}
	for i := 0; lap() < 2; i++ {
		put(fmt.Sprintf("%s-%02d", strings.Repeat("k", 100), i%16), "x")
		if i%50 == 0 {
			put("a", fmt.Sprintf("a-%d", i))
		}
	}
	put("a", "a-final")
	if err := h.Run(t, s, core.NewRequest(core.OpFsync)); err != nil {
		t.Fatal(err)
	}

	fresh := &LabKVS{}
	attrs["replay"] = "true"
	if err := fresh.Configure(core.Config{UUID: "kvs", Attrs: attrs}, h.Env); err != nil {
		t.Fatal(err)
	}
	h.Registry.Register("kvs", fresh)
	r := core.NewRequest(core.OpGet)
	r.Key = "a"
	if err := h.Run(t, s, r); err != nil || !bytes.Equal(r.Value, []byte("a-final")) {
		t.Fatalf("get a after replay: %q, %v", r.Value, err)
	}
	if fresh.Keys() != 17 {
		t.Fatalf("replayed %d keys, want 17", fresh.Keys())
	}
}
