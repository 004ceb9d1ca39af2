//go:build !race

package labkvs_test

import (
	"bytes"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	"labstor/internal/mods/labkvs"
	"labstor/internal/mods/lru"
	"labstor/internal/mods/modtest"
)

// Allocation contract of the KV data path. Not built under the race
// detector, which makes sync.Pool drop a share of its Puts.

// TestKVSteadyStateAllocs: once a key, the cache's pages and the pools are
// warm, an overwrite put of a one-block value and a get of it through
// labkvs → lru → kernel_driver allocate nothing. The index holds its entry
// by value with the block inline, the overwrite keeps the stored key, and
// the get answers with a view of the cache page.
func TestKVSteadyStateAllocs(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := h.Mount(t, "kv::/a",
		modtest.ChainVertex{UUID: "kvs", Type: labkvs.Type, Attrs: map[string]string{"device": "dev0", "log_mb": "4"}},
		modtest.ChainVertex{UUID: "cache", Type: lru.Type, Attrs: map[string]string{"capacity_mb": "1"}},
		modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
	value := bytes.Repeat([]byte{7}, 1000)
	var got []byte
	run := func(op core.Op) {
		r := core.NewRequest(op)
		r.Key = "user/00000042"
		if op == core.OpPut {
			r.Data, r.Size = value, len(value)
		}
		if err := h.Exec.Submit(s, r); err != nil {
			t.Fatal(err)
		}
		if op == core.OpGet {
			got = append(got[:0], r.Value...)
		}
		r.Release()
	}
	for i := 0; i < 4; i++ {
		run(core.OpPut)
		run(core.OpGet)
	}
	if n := testing.AllocsPerRun(200, func() { run(core.OpPut) }); n != 0 {
		t.Errorf("one-block overwrite put allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { run(core.OpGet) }); n != 0 {
		t.Errorf("one-block get allocates %v objects, want 0", n)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("get returned other bytes than the put wrote")
	}
}
