package runtime_test

import (
	"bytes"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	_ "labstor/internal/mods/allmods"
	"labstor/internal/runtime"
	"labstor/internal/telemetry"
)

// End-to-end zero-copy read handout: a cached block read with no
// destination buffer must hand out a retained view of the cache page (no
// copy), and that view must stay stable even after the block is
// overwritten and its page replaced.
func TestBlockReadHandoutZeroCopy(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 2})
	rt.AddDevice(device.New("nvme0", device.NVMe, 64<<20))
	if _, err := rt.MountSpec(`
mount: blk::/c
mods:
  - uuid: cache
    type: labstor.lru
    attrs:
      capacity_mb: 1
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`); err != nil {
		t.Fatalf("mount: %v", err)
	}
	rt.Start()
	t.Cleanup(rt.Shutdown)
	cli := rt.Connect(ipc.Credentials{PID: 1})

	pat1 := bytes.Repeat([]byte{0xA1}, 4096)
	pat2 := bytes.Repeat([]byte{0xB2}, 4096)
	if _, err := cli.Call("blk::/c", core.OpBlockWrite, func(r *core.Request) {
		r.Offset = 0
		r.Size = 4096
		r.Data = pat1
	}); err != nil {
		t.Fatal(err)
	}
	// Evict the write-inserted page (capacity 1 MiB = 256 pages) so the next
	// read misses and the cache retains the driver-filled handle in place.
	for i := 1; i <= 300; i++ {
		if _, err := cli.Call("blk::/c", core.OpBlockRead, func(r *core.Request) {
			r.Offset = int64(i) * 4096
			r.Size = 4096
		}); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := cli.Call("blk::/c", core.OpBlockRead, func(r *core.Request) {
		r.Offset = 0
		r.Size = 4096
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rd.Value, pat1) {
		t.Fatal("miss fill returned wrong bytes")
	}

	// Second read hits: the handout must not copy a single payload byte.
	c0, _ := telemetry.CopyTotals()
	rd2, err := cli.Call("blk::/c", core.OpBlockRead, func(r *core.Request) {
		r.Offset = 0
		r.Size = 4096
	})
	if err != nil {
		t.Fatal(err)
	}
	if c1, _ := telemetry.CopyTotals(); c1 != c0 {
		t.Fatalf("cached handout copied payload bytes (%d copy sites fired)", c1-c0)
	}
	held := rd2.TakeValue()
	defer held.Release()
	if !bytes.Equal(held.Bytes(), pat1) {
		t.Fatal("handout returned wrong bytes")
	}

	// Overwrite the block: the cache replaces the page, but the held view is
	// refcounted — it must keep showing the old bytes, not the new ones.
	if _, err := cli.Call("blk::/c", core.OpBlockWrite, func(r *core.Request) {
		r.Offset = 0
		r.Size = 4096
		r.Data = pat2
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held.Bytes(), pat1) {
		t.Fatal("held view mutated by overwrite — refcount failed to pin the page")
	}
}
