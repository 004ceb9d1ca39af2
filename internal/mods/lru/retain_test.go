package lru_test

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"strconv"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/compressmod"
	"labstor/internal/mods/driver"
	"labstor/internal/mods/lru"
	"labstor/internal/mods/modtest"
	"labstor/internal/telemetry"
)

// The write half of the ownership rule (DESIGN.md §13): a page-sized Buf
// handle becomes the cache page by reference, a bare Data slice is copied.

// writeInserts returns how many pages lru.write_insert has copied so far.
func writeInserts() int64 {
	for _, s := range telemetry.CopySiteStats() {
		if s.Site == "lru.write_insert" {
			return s.Count
		}
	}
	return 0
}

// handleWriteReq builds a block write whose payload is the handle h.
func handleWriteReq(off int64, h core.BufHandle) *core.Request {
	r := core.NewRequest(core.OpBlockWrite)
	r.Offset = off
	r.Size = h.Len()
	r.SetPayload(h)
	return r
}

// cachedView reads block off with no destination, so a hit hands back a
// retained view of the page; the caller releases the request.
func cachedView(t *testing.T, h *modtest.Harness, s *core.Stack, off int64) *core.Request {
	t.Helper()
	r := core.NewRequest(core.OpBlockRead)
	r.Offset = off
	r.Size = 4096
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRetainPayloadHandle(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, nil)
	payload := core.AcquireHandle(4096)
	defer payload.Release()
	copy(payload.Bytes(), bytes.Repeat([]byte{0x5A}, 4096))

	inserts := writeInserts()
	if err := h.Run(t, s, handleWriteReq(8192, payload)); err != nil {
		t.Fatal(err)
	}
	if d := writeInserts() - inserts; d != 0 {
		t.Fatalf("a handle write copied %d pages into the cache, want 0", d)
	}
	if payload.Sole() {
		t.Fatal("the cache holds no reference to the payload it kept as a page")
	}
	r := cachedView(t, h, s, 8192)
	if &r.Value[0] != &payload.Bytes()[0] {
		t.Fatal("the cached page is not the payload's buffer")
	}
	r.Release()
	// Replacing the page drops the cache's one reference: the payload is
	// ours alone again.
	if err := h.Run(t, s, modtest.BlockWriteReq(8192, make([]byte, 4096))); err != nil {
		t.Fatal(err)
	}
	if !payload.Sole() {
		t.Fatal("the cache kept more than one reference to the payload")
	}
}

func TestRetainNotBareSlice(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, nil)
	data := bytes.Repeat([]byte{0x3C}, 4096)

	inserts := writeInserts()
	if err := h.Run(t, s, modtest.BlockWriteReq(0, data)); err != nil {
		t.Fatal(err)
	}
	if d := writeInserts() - inserts; d != 1 {
		t.Fatalf("a bare-slice write copied %d pages into the cache, want 1", d)
	}
	data[0] = 0xFF // the caller reuses its slice
	r := cachedView(t, h, s, 0)
	defer r.Release()
	if &r.Value[0] == &data[0] || r.Value[0] != 0x3C {
		t.Fatal("the cache kept the caller's slice instead of a copy")
	}
}

func TestRetainOverwriteKeepsView(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, nil)
	first, second := core.AcquireHandle(4096), core.AcquireHandle(4096)
	defer first.Release()
	defer second.Release()
	copy(first.Bytes(), bytes.Repeat([]byte{1}, 4096))
	copy(second.Bytes(), bytes.Repeat([]byte{2}, 4096))

	if err := h.Run(t, s, handleWriteReq(0, first)); err != nil {
		t.Fatal(err)
	}
	early := cachedView(t, h, s, 0) // a getter holding the first page
	defer early.Release()
	if err := h.Run(t, s, handleWriteReq(0, second)); err != nil {
		t.Fatal(err)
	}
	late := cachedView(t, h, s, 0)
	defer late.Release()
	if &late.Value[0] != &second.Bytes()[0] {
		t.Fatal("the overwrite did not insert its payload as the new page")
	}
	if !bytes.Equal(early.Value, bytes.Repeat([]byte{1}, 4096)) {
		t.Fatal("an overwrite changed the bytes an earlier getter holds")
	}
	if _, _, resident := cacheInstance(t, h).Stats(); resident != 1 {
		t.Fatalf("%d pages resident after overwriting one block", resident)
	}
}

// TestRetainCompressDetaches writes a page-sized handle payload through
// compress -> lru -> kernel_driver, with a payload whose deflate frame is
// exactly one page, so the cache sees an aligned page write. The cache
// must keep the frame the device holds, not the caller's uncompressed
// handle, and the stack must read the payload back.
func TestRetainCompressDetaches(t *testing.T) {
	const level = 6 // level 1 stores near-random pages raw, never one page long
	payload := core.AcquireHandle(4096)
	defer payload.Release()
	if !framesToOnePage(payload.Bytes(), level) {
		t.Fatal("no payload of this shape deflates to a one-page frame")
	}
	want := bytes.Clone(payload.Bytes())

	h := modtest.New(t, device.NVMe, 64<<20)
	zip := h.Mount(t, "blk::/z",
		modtest.ChainVertex{UUID: "zip", Type: compressmod.Type, Attrs: map[string]string{"level": strconv.Itoa(level)}},
		modtest.ChainVertex{UUID: "cache", Type: lru.Type},
		modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
	raw := mountCache(t, h, nil) // the same cache instance, without the transform
	if err := h.Run(t, zip, handleWriteReq(0, payload)); err != nil {
		t.Fatal(err)
	}

	r := modtest.BlockReadReq(0, 4096)
	if err := h.Run(t, zip, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, want) {
		t.Fatal("compress over lru read back different bytes")
	}
	frame := make([]byte, 4096)
	h.Dev.ReadAt(frame, 0)
	page := cachedView(t, h, raw, 0)
	defer page.Release()
	if hits, _, _ := cacheInstance(t, h).Stats(); hits != 1 {
		t.Fatalf("%d cache hits, want the block read to hit", hits)
	}
	if !bytes.Equal(page.Value, frame) {
		t.Fatal("the cache page differs from the frame on the device")
	}
}

// framesToOnePage fills b with random bytes and narrows a growing prefix
// of them to four bits, until compressmod's frame of b (5-byte header +
// deflate stream) is exactly len(b) bytes. It reports whether some prefix
// does that.
func framesToOnePage(b []byte, level int) bool {
	rand.New(rand.NewSource(7)).Read(b)
	for m := 0; m < len(b); m++ {
		b[m] &= 0x0F
		var out bytes.Buffer
		w, _ := flate.NewWriter(&out, level)
		w.Write(b)
		w.Close()
		if 5+out.Len() == len(b) {
			return true
		}
	}
	return false
}

// copySites returns every copy site's count.
func copySites() map[string]int64 {
	m := map[string]int64{}
	for _, s := range telemetry.CopySiteStats() {
		m[s.Site] = s.Count
	}
	return m
}

// copiedSince returns, by site, the copies made since before.
func copiedSince(before map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for site, n := range copySites() {
		if n != before[site] {
			d[site] = n - before[site]
		}
	}
	return d
}

// TestRetainWritebackFlushByReference: a flush writes each dirty page back
// as the child's Buf, so the device keeps the page by reference: a flush
// of N dirty pages makes N device writes and no copy at all, and the
// device then holds the written bytes exactly.
func TestRetainWritebackFlushByReference(t *testing.T) {
	const n = 32
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, map[string]string{"policy": "writeback"})
	block := func(i int) []byte { return bytes.Repeat([]byte{byte(i), 0x5A}, 2048) }
	for i := 0; i < n; i++ {
		if err := h.Run(t, s, modtest.BlockWriteReq(int64(i)*4096, block(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := cacheInstance(t, h).DirtyPages(); d != n {
		t.Fatalf("%d dirty pages, want %d", d, n)
	}
	_, w0, _, _, _ := h.Dev.Stats()
	before := copySites()
	if err := h.Run(t, s, core.NewRequest(core.OpBlockFlush)); err != nil {
		t.Fatal(err)
	}
	if d := copiedSince(before); len(d) != 0 {
		t.Errorf("a flush of %d dirty pages copied %v, want nothing (no device.dma_write)", n, d)
	}
	if _, w, _, _, _ := h.Dev.Stats(); w-w0 != n {
		t.Fatalf("a flush of %d dirty pages made %d device writes", n, w-w0)
	}
	got := make([]byte, 4096)
	for i := 0; i < n; i++ {
		h.Dev.ReadAt(got, int64(i)*4096)
		if !bytes.Equal(got, block(i)) {
			t.Fatalf("block %d on the device differs from its flushed page", i)
		}
	}
}

// TestRetainWriteThroughPassesPageDown: a write-through of a bare slice
// copies it once, into the page, and the page goes down as the write's
// Buf: no device.dma_write. A later miss into a bare destination fills
// the page by reference and copies once, into the destination: no
// device.dma_read.
func TestRetainWriteThroughPassesPageDown(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountCache(t, h, map[string]string{"capacity_mb": "1"}) // 256 pages
	data := bytes.Repeat([]byte{0xC5, 0x3C}, 2048)
	before := copySites()
	w := modtest.BlockWriteReq(0, data)
	if err := h.Run(t, s, w); err != nil {
		t.Fatal(err)
	}
	if d := copiedSince(before); len(d) != 1 || d["lru.write_insert"] != 1 {
		t.Fatalf("a bare write-through copied %v, want one lru.write_insert", d)
	}
	if w.Buf.Valid() || &w.Data[0] != &data[0] {
		t.Fatal("the request must get its own Data back, and no Buf")
	}
	for i := 1; i <= 256; i++ { // evict block 0
		h.Run(t, s, modtest.BlockWriteReq(int64(i)*4096, data))
	}
	before = copySites()
	r := modtest.BlockReadReq(0, 4096)
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, data) || r.Value != nil || r.ValueH.Valid() {
		t.Fatal("a miss into a bare destination must fill the destination and leave no result handle")
	}
	if d := copiedSince(before); len(d) != 1 || d["lru.fill_copy"] != 1 {
		t.Fatalf("a cold read into a bare destination copied %v, want one lru.fill_copy", d)
	}
}
