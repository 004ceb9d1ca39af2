//go:build !race

package labfs_test

import (
	"bytes"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	"labstor/internal/mods/labfs"
	"labstor/internal/mods/lru"
	"labstor/internal/mods/modtest"
)

// Allocation contract of the block data path. Not built under the race
// detector, which makes sync.Pool drop a share of its Puts.

// TestLabFSSteadyStateAllocs: once a file's blocks, the cache's pages and
// the pools are warm, a 16 KiB aligned overwrite and a 16 KiB read of the
// file through labfs → lru → kernel_driver allocate nothing. The per-block
// children come from the request pool and go back to it, the cache reuses
// its slots, and the arena recycles the replaced pages without a box.
func TestLabFSSteadyStateAllocs(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := h.Mount(t, "fs::/a",
		modtest.ChainVertex{UUID: "fs", Type: labfs.Type, Attrs: map[string]string{"device": "dev0", "log_mb": "4"}},
		modtest.ChainVertex{UUID: "cache", Type: lru.Type, Attrs: map[string]string{"capacity_mb": "1"}},
		modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
	const size = 16 << 10
	payload := bytes.Repeat([]byte{7}, size)
	if err := h.Run(t, s, modtest.WriteReq("f", 0, payload)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, size)
	req := core.NewRequest(core.OpNop)
	run := func(op core.Op, data []byte) {
		*req = core.Request{Op: op, Path: "f", Size: size, Data: data}
		if err := h.Exec.Submit(s, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run(core.OpWrite, payload)
		run(core.OpRead, dst)
	}
	if n := testing.AllocsPerRun(200, func() { run(core.OpWrite, payload) }); n != 0 {
		t.Errorf("16 KiB cached overwrite allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { run(core.OpRead, dst) }); n != 0 {
		t.Errorf("16 KiB read allocates %v objects, want 0", n)
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("read returned other bytes than the overwrite wrote")
	}
}
