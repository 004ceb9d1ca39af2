package device

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"labstor/internal/arena"
)

// copies returns the counts of the store's copy sites.
func copies() (write, read, cow int64) {
	return copyDMAWrite.Count(), copyDMARead.Count(), copyCOW.Count()
}

// filled returns an arena handle of n bytes, each block's bytes derived
// from seed.
func filled(n int, seed byte) arena.Handle {
	h := arena.Acquire(n)
	for i, b := 0, h.Bytes(); i < n; i++ {
		b[i] = seed + byte(i/BlockSize) + byte(i)
	}
	return h
}

// TestSparseStoreAdoptByReference: an aligned handle write is stored
// without a copy, a one-block read with no destination is a view of the
// stored bytes, and a read into a slice copies them out.
func TestSparseStoreAdoptByReference(t *testing.T) {
	s := NewSparseStore(1 << 20)
	h := filled(4*BlockSize, 1)
	want := bytes.Clone(h.Bytes())
	w0, r0, c0 := copies()
	if n, err := s.Adopt(h, 2*BlockSize); err != nil || n != 4*BlockSize {
		t.Fatalf("adopt: %d, %v", n, err)
	}
	if s.Materialized() != 4*BlockSize {
		t.Fatalf("materialized %d, want %d", s.Materialized(), 4*BlockSize)
	}
	if h.Sole() {
		t.Fatal("the store holds no reference to the adopted buffer")
	}
	view, err := s.ReadHandle(3*BlockSize, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if &view.Bytes()[0] != &h.Bytes()[BlockSize] {
		t.Fatal("a one-block read with no destination must view the adopted bytes")
	}
	sub, err := s.ReadHandle(3*BlockSize+100, 50)
	if err != nil || !bytes.Equal(sub.Bytes(), want[BlockSize+100:BlockSize+150]) {
		t.Fatalf("sub-block view: %v", err)
	}
	sub.Release()
	if w, r, c := copies(); w != w0 || r != r0 || c != c0 {
		t.Fatalf("by-reference write and reads copied: dma_write +%d, dma_read +%d, cow +%d", w-w0, r-r0, c-c0)
	}
	h.Release() // the writer is done; the store's views keep the bytes
	got := make([]byte, 4*BlockSize)
	if _, err := s.ReadAt(got, 2*BlockSize); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("readback after the writer released: %v", err)
	}
	if _, r, _ := copies(); r != r0+1 {
		t.Fatalf("a read into a slice made %d dma_read, want 1", r-r0)
	}
	view.Release()
}

// TestSparseStoreReadViewIsStable: a view handed out by ReadHandle keeps
// the bytes it was read with through every later change of its block — a
// handle write, a full and a partial bare write, a trim — and the partial
// write into the shared block copies it first.
func TestSparseStoreReadViewIsStable(t *testing.T) {
	s := NewSparseStore(1 << 20)
	if _, err := s.WriteAt(bytes.Repeat([]byte{0x11}, BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	view, _ := s.ReadHandle(0, BlockSize)
	old := bytes.Clone(view.Bytes())
	_, _, c0 := copies()
	s.WriteAt([]byte{0x22, 0x22}, 10) // partial: the block is shared, so copied first
	if _, _, c := copies(); c != c0+1 {
		t.Fatalf("a partial write into a shared block made %d cow copies, want 1", c-c0)
	}
	got := make([]byte, BlockSize)
	s.ReadAt(got, 0)
	if got[9] != 0x11 || got[10] != 0x22 || got[12] != 0x11 {
		t.Fatalf("partial write over a shared block: bytes %x", got[8:14])
	}
	h := filled(BlockSize, 7)
	s.Adopt(h, 0)
	h.Release()
	s.WriteAt(make([]byte, BlockSize), 0)
	s.Trim(0, BlockSize)
	if !bytes.Equal(view.Bytes(), old) {
		t.Fatal("a read view changed under a later write or trim")
	}
	view.Release()

	// A block the store holds alone is written in place: no cow copy.
	s.WriteAt(bytes.Repeat([]byte{0x33}, BlockSize), BlockSize)
	_, _, c0 = copies()
	s.WriteAt([]byte{0x44}, BlockSize+5)
	if _, _, c := copies(); c != c0 {
		t.Fatalf("a partial write into a sole block made %d cow copies", c-c0)
	}
}

// TestSparseStoreAdoptUnalignedCopies: a handle write off the block grid,
// or of a length that is not whole blocks, is copied like a slice.
func TestSparseStoreAdoptUnalignedCopies(t *testing.T) {
	s := NewSparseStore(1 << 20)
	for _, c := range []struct {
		off int64
		n   int
	}{{100, BlockSize}, {BlockSize, 100}, {BlockSize, BlockSize + 1}} {
		h := filled(c.n, 3)
		w0, _, _ := copies()
		if _, err := s.Adopt(h, c.off); err != nil {
			t.Fatal(err)
		}
		if w, _, _ := copies(); w != w0+1 {
			t.Fatalf("adopt of %d bytes at %d: %d dma_write, want 1", c.n, c.off, w-w0)
		}
		if !h.Sole() {
			t.Fatalf("adopt of %d bytes at %d retained an unaligned buffer", c.n, c.off)
		}
		got := make([]byte, c.n)
		s.ReadAt(got, c.off)
		if !bytes.Equal(got, h.Bytes()) {
			t.Fatalf("adopt of %d bytes at %d: readback differs", c.n, c.off)
		}
		h.Release()
	}
}

// TestSparseStoreReadHandleHolesAndSpans: a hole reads as a zeroed
// handle, and a read that spans blocks is copied into one handle.
func TestSparseStoreReadHandleHolesAndSpans(t *testing.T) {
	s := NewSparseStore(1 << 20)
	hole, err := s.ReadHandle(5*BlockSize, BlockSize)
	if err != nil || hole.Len() != BlockSize || !bytes.Equal(hole.Bytes(), make([]byte, BlockSize)) {
		t.Fatalf("hole read: %v", err)
	}
	hole.Release()
	data := filled(3*BlockSize, 9)
	s.WriteAt(data.Bytes(), 0)
	_, r0, _ := copies()
	span, err := s.ReadHandle(BlockSize/2, 2*BlockSize)
	if err != nil || !bytes.Equal(span.Bytes(), data.Bytes()[BlockSize/2:BlockSize/2+2*BlockSize]) {
		t.Fatalf("spanning read: %v", err)
	}
	if _, r, _ := copies(); r != r0+1 {
		t.Fatalf("a spanning read made %d dma_read, want 1", r-r0)
	}
	span.Release()
	data.Release()
	if _, err := s.ReadHandle(1<<20-10, 20); err == nil {
		t.Fatal("read past capacity succeeded")
	}
}

// TestSparseStoreAdoptionStress mixes handle and slice writes, view and
// slice reads and trims from many goroutines, every write one writer's
// pattern over whole blocks (run under the race detector by
// scripts/check.sh). Every read must see whole blocks of one pattern, and
// once the store is trimmed every arena buffer has come back with no
// double release.
func TestSparseStoreAdoptionStress(t *testing.T) {
	const capacity = int64(2 << 20)
	for _, stripes := range []int{1, 8} {
		base, doubles := arena.ReadStats(), arena.DoubleReleases()
		s := newSparseStore(capacity, stripes)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				blocks := int(capacity / BlockSize)
				for i := 0; i < 300; i++ {
					nb := 1 + rng.Intn(3)
					off := int64(rng.Intn(blocks-nb)) * BlockSize
					switch rng.Intn(5) {
					case 0:
						h := arena.Acquire(nb * BlockSize)
						b := h.Bytes()
						for j := range b {
							b[j] = byte(seed)
						}
						s.Adopt(h, off)
						h.Release()
					case 1:
						s.WriteAt(bytes.Repeat([]byte{byte(seed)}, nb*BlockSize), off)
					case 2:
						v, err := s.ReadHandle(off, BlockSize)
						if err != nil {
							t.Error(err)
							return
						}
						if b := v.Bytes(); !bytes.Equal(b, bytes.Repeat(b[:1], BlockSize)) {
							t.Errorf("a block view mixes patterns at %d", off)
						}
						v.Release()
					case 3:
						got := make([]byte, nb*BlockSize)
						s.ReadAt(got, off)
						for j := 0; j < nb; j++ {
							b := got[j*BlockSize : (j+1)*BlockSize]
							if !bytes.Equal(b, bytes.Repeat(b[:1], BlockSize)) {
								t.Errorf("a block read mixes patterns at %d", off+int64(j*BlockSize))
							}
						}
					default:
						s.Trim(off, int64(nb*BlockSize))
					}
				}
			}(int64(g + 1))
		}
		wg.Wait()
		if err := s.Trim(0, capacity); err != nil {
			t.Fatal(err)
		}
		if s.Materialized() != 0 || len(s.stripes[0].chunks) != 0 {
			t.Fatalf("stripes=%d: %d bytes materialized after a full trim", stripes, s.Materialized())
		}
		st := arena.ReadStats()
		if held := (st.Gets - st.Releases) - (base.Gets - base.Releases); held != 0 {
			t.Fatalf("stripes=%d: %d arena buffers still held after a full trim", stripes, held)
		}
		if d := arena.DoubleReleases() - doubles; d != 0 {
			t.Fatalf("stripes=%d: %d double releases", stripes, d)
		}
	}
}

// TestDeviceDMAByReference: WriteBuf and ReadBuf move no bytes and
// account the command like SubmitToQueue.
func TestDeviceDMAByReference(t *testing.T) {
	d := New("nvme", NVMe, 1<<30)
	h := filled(2*BlockSize, 5)
	w0, r0, _ := copies()
	_, end, err := d.WriteBuf(3, 8192, h, 0)
	if err != nil || end <= 0 {
		t.Fatalf("WriteBuf: end %v, %v", end, err)
	}
	v, _, end2, err := d.ReadBuf(3, 8192+BlockSize, BlockSize, end)
	if err != nil || end2 <= end {
		t.Fatalf("ReadBuf: end %v, %v", end2, err)
	}
	if !bytes.Equal(v.Bytes(), h.Bytes()[BlockSize:]) {
		t.Fatal("ReadBuf returned other bytes than WriteBuf stored")
	}
	if w, r, _ := copies(); w != w0 || r != r0 {
		t.Fatalf("by-reference commands copied: dma_write +%d, dma_read +%d", w-w0, r-r0)
	}
	reads, writes, br, bw, _ := d.Stats()
	if reads != 1 || writes != 1 || br != BlockSize || bw != 2*BlockSize {
		t.Fatalf("stats: %d reads %d writes, %d/%d bytes", reads, writes, br, bw)
	}
	v.Release()
	h.Release()
}

// TestDeviceAdoptedBlockChangedPanics: with debug checks on, the store
// checksums every block it adopts, and a writer that writes into its
// buffer after the write completed is caught when the block is next read,
// replaced or trimmed, by a panic that names the device and the offset.
func TestDeviceAdoptedBlockChangedPanics(t *testing.T) {
	defer arena.SetDebugChecks(arena.SetDebugChecks(true))
	for _, c := range []struct {
		name string
		next func(d *Device)
	}{
		{"read", func(d *Device) { d.ReadAt(make([]byte, 16), 3*BlockSize) }},
		{"view", func(d *Device) { v, _, _, _ := d.ReadBuf(0, 3*BlockSize, BlockSize, 0); v.Release() }},
		{"replaced", func(d *Device) { d.WriteAt(make([]byte, BlockSize), 3*BlockSize) }},
		{"trimmed", func(d *Device) { d.Trim(0, 1<<20) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := New("pmem7", NVMe, 1<<20)
			h := filled(2*BlockSize, 1)
			if _, _, err := d.WriteBuf(0, 2*BlockSize, h, 0); err != nil {
				t.Fatal(err)
			}
			h.Bytes()[BlockSize+10]++ // the write has completed: this is the bug
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "device pmem7") || !strings.Contains(msg, fmt.Sprintf("offset %d", 3*BlockSize)) {
					t.Fatalf("want a panic naming device pmem7 and offset %d, got %q", 3*BlockSize, msg)
				}
			}()
			c.next(d)
		})
	}
}

// TestDeviceAdoptedBlockUnchangedPasses: the debug check stays quiet for
// a writer that keeps to the rule, through reads, replacement and trim.
func TestDeviceAdoptedBlockUnchangedPasses(t *testing.T) {
	defer arena.SetDebugChecks(arena.SetDebugChecks(true))
	d := New("nvme", NVMe, 1<<20)
	h := filled(4*BlockSize, 2)
	d.WriteBuf(0, 0, h, 0)
	h.Release()
	got := make([]byte, 4*BlockSize)
	d.ReadAt(got, 0)
	v, _, _, _ := d.ReadBuf(0, BlockSize, BlockSize, 0)
	v.Release()
	d.WriteAt(got[:BlockSize], 0)
	d.WriteAt(got[:10], BlockSize+7) // in place: the block is the store's alone
	if err := d.Trim(0, 1<<20); err != nil {
		t.Fatal(err)
	}
}
