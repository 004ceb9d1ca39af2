package compressmod_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/compressmod"
	"labstor/internal/mods/driver"
	"labstor/internal/mods/modtest"
)

func mountZip(t *testing.T, h *modtest.Harness) *core.Stack {
	return h.Mount(t, "blk::/z",
		modtest.ChainVertex{UUID: "zip", Type: compressmod.Type, Attrs: map[string]string{"level": "1"}},
		modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
}

func TestCompressibleRoundTrip(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountZip(t, h)
	data := bytes.Repeat([]byte("abcabcabc"), 400) // 3600 bytes, low entropy
	w := modtest.BlockWriteReq(0, data)
	if err := h.Run(t, s, w); err != nil {
		t.Fatal(err)
	}
	if w.Result != int64(len(data)) {
		t.Fatalf("caller-visible result %d", w.Result)
	}
	// The caller's buffer and size must be restored.
	if len(w.Data) != len(data) || !bytes.Equal(w.Data, data) {
		t.Fatal("caller payload mutated")
	}
	r := modtest.BlockReadReq(0, len(data))
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, data) {
		t.Fatal("round trip mismatch")
	}
	// The device actually holds fewer payload bytes than the logical size.
	m, _ := h.Registry.Get("zip")
	if m.(*compressmod.Compressor).Ratio() <= 1.5 {
		t.Fatalf("compressible data did not compress: ratio %.2f", m.(*compressmod.Compressor).Ratio())
	}
}

func TestIncompressibleRawFallback(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountZip(t, h)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4096)
	rng.Read(data)
	if err := h.Run(t, s, modtest.BlockWriteReq(0, data)); err != nil {
		t.Fatal(err)
	}
	r := modtest.BlockReadReq(0, len(data))
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, data) {
		t.Fatal("raw fallback round trip mismatch")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountZip(t, h)
	off := int64(0)
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		myOff := off
		off += int64(len(data)) + 4096
		if h.Run(t, s, modtest.BlockWriteReq(myOff, data)) != nil {
			return false
		}
		r := modtest.BlockReadReq(myOff, len(data))
		if h.Run(t, s, r) != nil {
			return false
		}
		return bytes.Equal(r.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptFrameDetected(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountZip(t, h)
	data := bytes.Repeat([]byte{1}, 1024)
	h.Run(t, s, modtest.BlockWriteReq(0, data))
	// Corrupt the frame flag on the device.
	h.Dev.WriteAt([]byte{0xEE}, 0)
	r := modtest.BlockReadReq(0, len(data))
	if err := h.Run(t, s, r); err == nil {
		t.Fatal("corrupt frame read succeeded")
	}
}

func TestCompressChargesCPU(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountZip(t, h)
	data := bytes.Repeat([]byte{2}, 64<<10)
	w := modtest.BlockWriteReq(0, data)
	h.Run(t, s, w)
	if w.CPUTime < h.Env.Model.Compress(len(data)) {
		t.Fatalf("compression CPU not charged: %v", w.CPUTime)
	}
}

func TestNonDataOpsPassThrough(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountZip(t, h)
	fl := core.NewRequest(core.OpBlockFlush)
	if err := h.Run(t, s, fl); err != nil {
		t.Fatal(err)
	}
}

func TestBadLevelRejected(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	c := &compressmod.Compressor{}
	if err := c.Configure(core.Config{Attrs: map[string]string{"level": "42"}}, h.Env); err == nil {
		t.Fatal("level 42 accepted")
	}
	if err := c.Configure(core.Config{Attrs: map[string]string{"level": "nope"}}, h.Env); err == nil {
		t.Fatal("non-numeric level accepted")
	}
}

func TestStateUpdateCounters(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountZip(t, h)
	h.Run(t, s, modtest.BlockWriteReq(0, bytes.Repeat([]byte{1}, 2048)))
	old, _ := h.Registry.Get("zip")
	ratio := old.(*compressmod.Compressor).Ratio()
	next := &compressmod.Compressor{}
	next.Configure(core.Config{UUID: "zip", Attrs: map[string]string{"level": "1"}}, h.Env)
	h.Registry.Swap("zip", next)
	if next.Ratio() != ratio {
		t.Fatal("ratio counters lost across upgrade")
	}
}
