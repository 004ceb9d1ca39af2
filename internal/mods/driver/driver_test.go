package driver_test

import (
	"bytes"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	"labstor/internal/mods/modtest"
	"labstor/internal/telemetry"
)

func TestKernelDriverRoundTrip(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := h.Mount(t, "blk::/kd", modtest.ChainVertex{
		UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"},
	})
	data := []byte("kernel driver payload")
	w := modtest.BlockWriteReq(8192, data)
	if err := h.Run(t, s, w); err != nil {
		t.Fatal(err)
	}
	if w.Result != int64(len(data)) {
		t.Fatalf("result %d", w.Result)
	}
	r := modtest.BlockReadReq(8192, len(data))
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, data) {
		t.Fatal("mismatch")
	}
	if r.Latency() <= 0 {
		t.Fatal("no modeled latency")
	}
}

func TestSPDKFasterThanKernelDriver(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	kd := h.Mount(t, "blk::/kd", modtest.ChainVertex{
		UUID: "kd", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"},
	})
	sp := h.Mount(t, "blk::/spdk", modtest.ChainVertex{
		UUID: "spdk", Type: driver.SPDKType, Attrs: map[string]string{"device": "dev0"},
	})
	buf := make([]byte, 4096)
	w1 := modtest.BlockWriteReq(0, buf)
	w1.Hctx = 1
	h.Run(t, kd, w1)
	w2 := modtest.BlockWriteReq(8192, buf)
	w2.Hctx = 2
	h.Run(t, sp, w2)
	if w2.CPUTime >= w1.CPUTime {
		t.Fatalf("SPDK CPU (%v) must undercut kernel driver (%v)", w2.CPUTime, w1.CPUTime)
	}
}

func TestDAXRequiresByteAddressable(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	m, err := core.NewModule(driver.DAXType)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(core.Config{UUID: "dax", Attrs: map[string]string{"device": "dev0"}}, h.Env); err == nil {
		t.Fatal("DAX configured over NVMe")
	}
}

func TestDAXRoundTripOnPMEM(t *testing.T) {
	h := modtest.New(t, device.PMEM, 64<<20)
	s := h.Mount(t, "blk::/dax", modtest.ChainVertex{
		UUID: "dax", Type: driver.DAXType, Attrs: map[string]string{"device": "dev0"},
	})
	data := []byte("byte addressable")
	if err := h.Run(t, s, modtest.BlockWriteReq(100, data)); err != nil {
		t.Fatal(err) // unaligned offsets are fine: DAX is byte-addressable
	}
	r := modtest.BlockReadReq(100, len(data))
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, data) {
		t.Fatal("mismatch")
	}
}

func TestDriverFlushAndDiscard(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := h.Mount(t, "blk::/kd", modtest.ChainVertex{
		UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"},
	})
	fl := core.NewRequest(core.OpBlockFlush)
	if err := h.Run(t, s, fl); err != nil {
		t.Fatal(err)
	}
	// Discard returns a written range to zeros.
	h.Run(t, s, modtest.BlockWriteReq(0, bytes.Repeat([]byte{0xFF}, 128<<10)))
	disc := core.NewRequest(core.OpBlockDiscard)
	disc.Offset = 0
	disc.Size = 128 << 10
	if err := h.Run(t, s, disc); err != nil {
		t.Fatal(err)
	}
	r := modtest.BlockReadReq(64<<10, 16)
	h.Run(t, s, r)
	for _, b := range r.Data {
		if b != 0 {
			t.Fatal("discard did not zero")
		}
	}
}

func TestDriverRejectsUnknownOps(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := h.Mount(t, "blk::/kd", modtest.ChainVertex{
		UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"},
	})
	bad := core.NewRequest(core.OpRename)
	if err := h.Run(t, s, bad); err == nil {
		t.Fatal("rename handled by a block driver")
	}
}

func TestDriverMissingDeviceAttr(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	for _, typ := range []string{driver.KernelDriverType, driver.SPDKType, driver.DAXType} {
		m, _ := core.NewModule(typ)
		if err := m.Configure(core.Config{UUID: "x"}, h.Env); err == nil {
			t.Fatalf("%s configured without device", typ)
		}
	}
}

func TestDriverReadAllocatesBuffer(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := h.Mount(t, "blk::/kd", modtest.ChainVertex{
		UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"},
	})
	r := core.NewRequest(core.OpBlockRead) // no Data buffer provided
	r.Offset = 0
	r.Size = 512
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if len(r.Value) != 512 {
		t.Fatalf("driver did not allocate: %d", len(r.Value))
	}
}

func TestSPDKFlushDiscardAndReadAlloc(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := h.Mount(t, "blk::/spdk", modtest.ChainVertex{
		UUID: "spdk", Type: driver.SPDKType, Attrs: map[string]string{"device": "dev0"},
	})
	if err := h.Run(t, s, core.NewRequest(core.OpBlockFlush)); err != nil {
		t.Fatal(err)
	}
	h.Run(t, s, modtest.BlockWriteReq(0, bytes.Repeat([]byte{1}, 128<<10)))
	disc := core.NewRequest(core.OpBlockDiscard)
	disc.Size = 128 << 10
	if err := h.Run(t, s, disc); err != nil {
		t.Fatal(err)
	}
	r := core.NewRequest(core.OpBlockRead)
	r.Size = 256
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if len(r.Value) != 256 {
		t.Fatal("spdk read alloc")
	}
	if err := h.Run(t, s, core.NewRequest(core.OpRename)); err == nil {
		t.Fatal("spdk handled rename")
	}
	m, _ := h.Registry.Get("spdk")
	if err := m.StateRepair(); err != nil {
		t.Fatal(err)
	}
}

func TestDAXFlushDiscardAndReadAlloc(t *testing.T) {
	h := modtest.New(t, device.PMEM, 64<<20)
	s := h.Mount(t, "blk::/dax", modtest.ChainVertex{
		UUID: "dax", Type: driver.DAXType, Attrs: map[string]string{"device": "dev0"},
	})
	if err := h.Run(t, s, core.NewRequest(core.OpBlockFlush)); err != nil {
		t.Fatal(err)
	}
	h.Run(t, s, modtest.BlockWriteReq(0, bytes.Repeat([]byte{1}, 64<<10)))
	disc := core.NewRequest(core.OpBlockDiscard)
	disc.Size = 64 << 10
	if err := h.Run(t, s, disc); err != nil {
		t.Fatal(err)
	}
	r := core.NewRequest(core.OpBlockRead)
	r.Size = 64
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if len(r.Value) != 64 {
		t.Fatal("dax read alloc")
	}
	if err := h.Run(t, s, core.NewRequest(core.OpRename)); err == nil {
		t.Fatal("dax handled rename")
	}
	m, _ := h.Registry.Get("dax")
	if err := m.StateRepair(); err != nil {
		t.Fatal(err)
	}
}

func TestDriverStateRepair(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	h.Mount(t, "blk::/kd", modtest.ChainVertex{
		UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"},
	})
	m, _ := h.Registry.Get("drv")
	if err := m.StateRepair(); err != nil {
		t.Fatal(err)
	}
}

// dmaCopies returns the device's copy counts so far.
func dmaCopies() (write, read int64) {
	for _, s := range telemetry.CopySiteStats() {
		switch s.Site {
		case "device.dma_write":
			write = s.Count
		case "device.dma_read":
			read = s.Count
		}
	}
	return write, read
}

// TestDriverDMAByReference: the kernel driver and SPDK store a write whose
// Buf is the handle behind Data by reference, and answer a block read
// with no destination with a retained view of the stored block: neither
// copies. A bare Data slice is still copied in and out, and so is
// everything DAX moves, because a CPU memcpy is what DAX models.
func TestDriverDMAByReference(t *testing.T) {
	for _, c := range []struct {
		typ   string
		class device.Class
		byRef bool
	}{
		{driver.KernelDriverType, device.NVMe, true},
		{driver.SPDKType, device.NVMe, true},
		{driver.DAXType, device.PMEM, false},
	} {
		t.Run(c.typ, func(t *testing.T) {
			h := modtest.New(t, c.class, 64<<20)
			s := h.Mount(t, "blk::/d", modtest.ChainVertex{UUID: "drv", Type: c.typ, Attrs: map[string]string{"device": "dev0"}})
			payload := core.AcquireHandle(8192)
			for i, b := 0, payload.Bytes(); i < len(b); i++ {
				b[i] = byte(i * 13)
			}
			w := core.NewRequest(core.OpBlockWrite)
			w.Offset, w.Size = 4096, 8192
			w.SetPayload(payload)
			w0, r0 := dmaCopies()
			if err := h.Run(t, s, w); err != nil || w.Result != 8192 {
				t.Fatalf("write: result %d, %v", w.Result, err)
			}
			r := core.NewRequest(core.OpBlockRead) // no destination
			r.Offset, r.Size = 8192, 4096
			if err := h.Run(t, s, r); err != nil || r.Result != 4096 {
				t.Fatalf("read: result %d, %v", r.Result, err)
			}
			if !bytes.Equal(r.Value, payload.Bytes()[4096:]) {
				t.Fatal("read back other bytes than the write stored")
			}
			w1, r1 := dmaCopies()
			if want := map[bool]int64{true: 0, false: 1}[c.byRef]; w1-w0 != want || r1-r0 != want {
				t.Fatalf("handle write and destination-less read made %d dma_write and %d dma_read, want %d each", w1-w0, r1-r0, want)
			}
			if c.byRef && (&r.Value[0] != &payload.Bytes()[4096] || r.ValueH.Sole()) {
				t.Fatal("the read must be a view of the stored payload, shared with the device")
			}
			r.Release()
			payload.Release()

			bare := bytes.Repeat([]byte{0x6B}, 4096)
			h.Run(t, s, modtest.BlockWriteReq(0, bare))
			rb := modtest.BlockReadReq(0, 4096)
			h.Run(t, s, rb)
			if w2, r2 := dmaCopies(); w2-w1 != 1 || r2-r1 != 1 || !bytes.Equal(rb.Data, bare) {
				t.Fatalf("bare slices: %d dma_write and %d dma_read, want 1 each", w2-w1, r2-r1)
			}
		})
	}
}
