package experiments

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"labstor"
	"labstor/internal/device"
	"labstor/internal/telemetry"
)

// TestFSCopyContract is the copies/op contract of file traffic through the
// labstor facade, whose file buffers are bare slices, over a labfs -> lru
// -> noop -> driver stack, by CopySite name:
//
//   - a 16 KiB write makes 4 lru.write_insert and no device.dma_write: the
//     cache copies each block into a page and hands the page down, and the
//     kernel driver's device keeps it by reference;
//   - a cold 16 KiB read makes 4 lru.fill_copy and no device.dma_read: the
//     driver answers each block read with the stored block itself, which
//     becomes the page, and the cache copies it into the caller's buffer;
//   - a warm 16 KiB read makes 4 lru.hit_copy_out;
//   - over DAX, whose model is a CPU memcpy, the device copies are still
//     counted: 4 device.dma_write on the write, 4 device.dma_read on the
//     cold read.
//
// Every read returns the written bytes exactly. Any other site moving fails
// by name.
func TestFSCopyContract(t *testing.T) {
	const size = 16 << 10
	for _, c := range []struct {
		driver            string
		class             device.Class
		write, cold, warm map[string]int64
	}{
		{"kernel_driver", device.NVMe,
			map[string]int64{"lru.write_insert": 4},
			map[string]int64{"lru.fill_copy": 4},
			map[string]int64{"lru.hit_copy_out": 4}},
		{"dax", device.PMEM,
			map[string]int64{"lru.write_insert": 4, "device.dma_write": 4},
			map[string]int64{"lru.fill_copy": 4, "device.dma_read": 4},
			map[string]int64{"lru.hit_copy_out": 4}},
	} {
		t.Run(c.driver, func(t *testing.T) {
			p := labstor.NewPlatform(labstor.Config{Workers: 2, QueueDepth: 1024})
			defer p.Close()
			p.AddDevice("dev0", c.class, 64<<20)
			// A 1 MiB cache holds 256 pages, so 1 MiB more of another file
			// evicts the first file's.
			if _, err := MountLab(p.Runtime(), "fs::/fc", "dev0", LabCfg{Cache: true, CacheMB: 1, Sched: "noop", Driver: c.driver}); err != nil {
				t.Fatal(err)
			}
			sess := p.Connect()
			defer sess.Close()
			f, err := sess.Create("fs::/fc/a")
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, size)
			for i := range want {
				want[i] = byte(i*7 + i>>12)
			}
			got := make([]byte, size)
			step := func(name string, wantCopies map[string]int64, do func() (int, error)) {
				t.Helper()
				before := telemetry.CopySiteStats()
				if n, err := do(); err != nil || n != size {
					t.Fatalf("%s: %d bytes, %v", name, n, err)
				}
				if copies := copyDeltas(before); !maps.Equal(copies, wantCopies) {
					t.Errorf("%s copied %v, want %v", name, copies, wantCopies)
				}
			}
			read := func() (int, error) {
				clear(got)
				n, err := f.ReadAt(got, 0)
				if err == nil && !bytes.Equal(got, want) {
					err = fmt.Errorf("read back bytes that differ from the write")
				}
				return n, err
			}

			step("a 16 KiB write", c.write, func() (int, error) { return f.WriteAt(want, 0) })
			filler, err := sess.Create("fs::/fc/filler")
			if err != nil {
				t.Fatal(err)
			}
			chunk := make([]byte, 64<<10)
			for off := int64(0); off < 1<<20+64<<10; off += int64(len(chunk)) {
				if _, err := filler.WriteAt(chunk, off); err != nil {
					t.Fatal(err)
				}
			}
			step("a cold 16 KiB read", c.cold, read)
			step("a warm 16 KiB read", c.warm, read)
		})
	}
}
