package readahead_test

import (
	"bytes"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	"labstor/internal/mods/modtest"
	"labstor/internal/mods/readahead"
)

func mountRA(t *testing.T, h *modtest.Harness, attrs map[string]string) *core.Stack {
	if attrs == nil {
		attrs = map[string]string{}
	}
	return h.Mount(t, "blk::/ra",
		modtest.ChainVertex{UUID: "ra", Type: readahead.Type, Attrs: attrs},
		modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
}

func raInstance(t *testing.T, h *modtest.Harness) *readahead.Prefetcher {
	m, _ := h.Registry.Get("ra")
	return m.(*readahead.Prefetcher)
}

func seed(t *testing.T, h *modtest.Harness, blocks int) [][]byte {
	t.Helper()
	out := make([][]byte, blocks)
	for i := 0; i < blocks; i++ {
		out[i] = bytes.Repeat([]byte{byte(i + 1)}, 4096)
		if _, err := h.Dev.WriteAt(out[i], int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestSequentialDetectionAndHits(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountRA(t, h, map[string]string{"trigger": "2", "window": "4"})
	want := seed(t, h, 32)

	for i := 0; i < 16; i++ {
		r := modtest.BlockReadReq(int64(i)*4096, 4096)
		if err := h.Run(t, s, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Data, want[i]) {
			t.Fatalf("block %d content mismatch", i)
		}
	}
	ra := raInstance(t, h)
	hits, prefetches := ra.Stats()
	if prefetches == 0 {
		t.Fatal("sequential run never triggered prefetch")
	}
	if hits < 8 {
		t.Fatalf("too few prefetch hits: %d", hits)
	}
}

func TestRandomAccessDoesNotPrefetch(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountRA(t, h, map[string]string{"trigger": "3"})
	seed(t, h, 64)
	offsets := []int64{40, 3, 17, 55, 9, 28, 61, 1}
	for _, o := range offsets {
		r := modtest.BlockReadReq(o*4096, 4096)
		if err := h.Run(t, s, r); err != nil {
			t.Fatal(err)
		}
	}
	_, prefetches := raInstance(t, h).Stats()
	if prefetches != 0 {
		t.Fatalf("random access triggered %d prefetches", prefetches)
	}
}

func TestWriteInvalidatesPrefetchedBlock(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountRA(t, h, map[string]string{"trigger": "1", "window": "4"})
	seed(t, h, 16)
	// Read block 0: prefetches 1..4.
	h.Run(t, s, modtest.BlockReadReq(0, 4096))
	if raInstance(t, h).Buffered() == 0 {
		t.Fatal("nothing prefetched")
	}
	// Overwrite block 1, then read it: must see the NEW data.
	fresh := bytes.Repeat([]byte{0xEE}, 4096)
	h.Run(t, s, modtest.BlockWriteReq(4096, fresh))
	r := modtest.BlockReadReq(4096, 4096)
	h.Run(t, s, r)
	if !bytes.Equal(r.Data, fresh) {
		t.Fatal("stale prefetched block served after write")
	}
}

func TestPrefetchHitSkipsDevice(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountRA(t, h, map[string]string{"trigger": "1", "window": "8"})
	seed(t, h, 32)
	h.Run(t, s, modtest.BlockReadReq(0, 4096)) // triggers window fetch of 1..8
	reads0, _, _, _, _ := h.Dev.Stats()
	r := modtest.BlockReadReq(4096, 4096)
	h.Run(t, s, r)
	reads1, _, _, _, _ := h.Dev.Stats()
	if reads1 != reads0 {
		t.Fatal("prefetched block still read the device")
	}
}

// TestCapacityBounded reads every ninth block, so each read misses and
// prefetches the 8 blocks after it: 64 reads would buffer 512 blocks, and
// the buffer must stop at 256.
func TestCapacityBounded(t *testing.T) {
	const reads, stride = 64, 9
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountRA(t, h, map[string]string{"trigger": "1", "window": "8"})
	seed(t, h, reads*stride)
	for i := 0; i < reads; i++ {
		h.Run(t, s, modtest.BlockReadReq(int64(i*stride)*4096, 4096))
	}
	if got := raInstance(t, h).Buffered(); got != 256 {
		t.Fatalf("buffered %d blocks, want the bound of 256", got)
	}
}

func TestStateUpdateKeepsBuffer(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountRA(t, h, map[string]string{"trigger": "1", "window": "4"})
	seed(t, h, 16)
	h.Run(t, s, modtest.BlockReadReq(0, 4096))
	next := &readahead.Prefetcher{}
	next.Configure(core.Config{UUID: "ra", Attrs: map[string]string{"trigger": "1", "window": "4"}}, h.Env)
	if err := h.Registry.Swap("ra", next); err != nil {
		t.Fatal(err)
	}
	if next.Buffered() == 0 {
		t.Fatal("buffer lost in upgrade")
	}
}

func TestUnalignedBypass(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountRA(t, h, nil)
	seed(t, h, 4)
	r := modtest.BlockReadReq(100, 200)
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if r.Result != 200 {
		t.Fatalf("unaligned read result %d", r.Result)
	}
}
