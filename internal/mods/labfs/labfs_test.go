package labfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	"labstor/internal/mods/labfs"
	"labstor/internal/mods/modtest"
	"labstor/internal/mods/pushdown"
)

func mountFS(t *testing.T, h *modtest.Harness, uuid string, attrs map[string]string) *core.Stack {
	if attrs == nil {
		attrs = map[string]string{}
	}
	if attrs["device"] == "" {
		attrs["device"] = "dev0"
	}
	if attrs["log_mb"] == "" {
		attrs["log_mb"] = "4"
	}
	return h.Mount(t, "fs::/"+uuid,
		modtest.ChainVertex{UUID: uuid, Type: labfs.Type, Attrs: attrs},
		modtest.ChainVertex{UUID: uuid + "-drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
}

func fsInstance(t *testing.T, h *modtest.Harness, uuid string) *labfs.LabFS {
	m, err := h.Registry.Get(uuid)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*labfs.LabFS)
}

func TestWriteReadRoundTrip(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	data := bytes.Repeat([]byte("0123456789"), 2000) // 20000 bytes, crosses blocks
	if err := h.Run(t, s, modtest.WriteReq("a.bin", 0, data)); err != nil {
		t.Fatal(err)
	}
	r := modtest.ReadReq("a.bin", 0, len(data))
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if r.Result != int64(len(data)) || !bytes.Equal(r.Data, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestOverwriteInPlace(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	h.Run(t, s, modtest.WriteReq("f", 0, bytes.Repeat([]byte{1}, 8192)))
	free := fsInstance(t, h, "fs").FreeBlocks()
	// Overwriting the same range must not allocate new blocks.
	if err := h.Run(t, s, modtest.WriteReq("f", 0, bytes.Repeat([]byte{2}, 8192))); err != nil {
		t.Fatal(err)
	}
	if got := fsInstance(t, h, "fs").FreeBlocks(); got != free {
		t.Fatalf("overwrite leaked blocks: %d -> %d", free, got)
	}
	r := modtest.ReadReq("f", 0, 8192)
	h.Run(t, s, r)
	if r.Data[0] != 2 || r.Data[8191] != 2 {
		t.Fatal("overwrite content")
	}
}

func TestSparseHolesReadZero(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	h.Run(t, s, modtest.WriteReq("s", 100000, []byte("tail")))
	r := modtest.ReadReq("s", 50000, 100)
	h.Run(t, s, r)
	if r.Result != 100 {
		t.Fatalf("hole read result %d", r.Result)
	}
	for _, b := range r.Data {
		if b != 0 {
			t.Fatal("hole nonzero")
		}
	}
}

func TestReadPastEOF(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	h.Run(t, s, modtest.WriteReq("f", 0, []byte("12345")))
	r := modtest.ReadReq("f", 3, 100)
	h.Run(t, s, r)
	if r.Result != 2 || string(r.Data[:2]) != "45" {
		t.Fatalf("partial read: %d %q", r.Result, r.Data[:r.Result])
	}
	r2 := modtest.ReadReq("f", 100, 10)
	h.Run(t, s, r2)
	if r2.Result != 0 {
		t.Fatalf("read past EOF returned %d", r2.Result)
	}
}

func TestAppendOp(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	h.Run(t, s, modtest.WriteReq("log", 0, []byte("first|")))
	ap := core.NewRequest(core.OpAppend)
	ap.Path = "log"
	ap.Data = []byte("second")
	ap.Size = 6
	if err := h.Run(t, s, ap); err != nil {
		t.Fatal(err)
	}
	r := modtest.ReadReq("log", 0, 12)
	h.Run(t, s, r)
	if string(r.Data[:r.Result]) != "first|second" {
		t.Fatalf("append content %q", r.Data[:r.Result])
	}
}

func TestCreateExclusiveAndTrunc(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	cr := core.NewRequest(core.OpCreate)
	cr.Path = "x"
	if err := h.Run(t, s, cr); err != nil {
		t.Fatal(err)
	}
	// O_EXCL on existing fails.
	ex := core.NewRequest(core.OpCreate)
	ex.Path = "x"
	ex.Flags = core.FlagExcl
	if err := h.Run(t, s, ex); err == nil {
		t.Fatal("exclusive create of existing succeeded")
	}
	// O_TRUNC zeroes.
	h.Run(t, s, modtest.WriteReq("x", 0, []byte("data")))
	tr := core.NewRequest(core.OpOpen)
	tr.Path = "x"
	tr.Flags = core.FlagTrunc
	if err := h.Run(t, s, tr); err != nil {
		t.Fatal(err)
	}
	st := core.NewRequest(core.OpStat)
	st.Path = "x"
	h.Run(t, s, st)
	if st.Result != 0 {
		t.Fatalf("size after trunc %d", st.Result)
	}
}

func TestOpenMissingAndDirErrors(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	op := core.NewRequest(core.OpOpen)
	op.Path = "ghost"
	if err := h.Run(t, s, op); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	mk := core.NewRequest(core.OpMkdir)
	mk.Path = "dir"
	h.Run(t, s, mk)
	// Open of a directory fails.
	od := core.NewRequest(core.OpOpen)
	od.Path = "dir"
	if err := h.Run(t, s, od); err == nil {
		t.Fatal("open of directory succeeded")
	}
	// Write to a directory fails.
	if err := h.Run(t, s, func() *core.Request {
		r := modtest.WriteReq("dir", 0, []byte("no"))
		r.Flags = 0
		return r
	}()); err == nil {
		t.Fatal("write to directory succeeded")
	}
	// Unlink of a directory fails; rmdir works.
	ul := core.NewRequest(core.OpUnlink)
	ul.Path = "dir"
	if err := h.Run(t, s, ul); err == nil {
		t.Fatal("unlink of directory succeeded")
	}
	rm := core.NewRequest(core.OpRmdir)
	rm.Path = "dir"
	if err := h.Run(t, s, rm); err != nil {
		t.Fatal(err)
	}
}

func TestUnlinkFreesBlocks(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	fs := fsInstance(t, h, "fs")
	before := fs.FreeBlocks()
	h.Run(t, s, modtest.WriteReq("big", 0, make([]byte, 64<<10)))
	if fs.FreeBlocks() >= before {
		t.Fatal("write did not allocate")
	}
	ul := core.NewRequest(core.OpUnlink)
	ul.Path = "big"
	if err := h.Run(t, s, ul); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() != before {
		t.Fatalf("unlink leaked blocks: %d != %d", fs.FreeBlocks(), before)
	}
}

func TestTruncateFreesTail(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	fs := fsInstance(t, h, "fs")
	h.Run(t, s, modtest.WriteReq("t", 0, make([]byte, 16<<10)))
	after4 := fs.FreeBlocks()
	tr := core.NewRequest(core.OpTruncate)
	tr.Path = "t"
	tr.Offset = 4096
	if err := h.Run(t, s, tr); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() != after4+3 {
		t.Fatalf("truncate freed %d blocks, want 3", fs.FreeBlocks()-after4)
	}
	st := core.NewRequest(core.OpStat)
	st.Path = "t"
	h.Run(t, s, st)
	if st.Result != 4096 {
		t.Fatalf("size %d", st.Result)
	}
}

func TestRenameOverExistingReclaimsBlocks(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	fs := fsInstance(t, h, "fs")
	h.Run(t, s, modtest.WriteReq("src", 0, bytes.Repeat([]byte{1}, 4096)))
	h.Run(t, s, modtest.WriteReq("dst", 0, bytes.Repeat([]byte{2}, 64<<10)))
	free := fs.FreeBlocks()
	rn := core.NewRequest(core.OpRename)
	rn.Path = "src"
	rn.Path2 = "dst"
	if err := h.Run(t, s, rn); err != nil {
		t.Fatal(err)
	}
	// The 16 blocks of the old dst are reclaimed.
	if got := fs.FreeBlocks(); got != free+16 {
		t.Fatalf("rename leaked: free %d -> %d (want +16)", free, got)
	}
	r := modtest.ReadReq("dst", 0, 4096)
	h.Run(t, s, r)
	if r.Data[0] != 1 {
		t.Fatal("dst does not hold src's content")
	}
	if _, err := h.Run(t, s, modtest.ReadReq("src", 0, 1)), error(nil); err == nil {
		st := core.NewRequest(core.OpStat)
		st.Path = "src"
		if e2 := h.Run(t, s, st); e2 == nil {
			t.Fatal("src still exists after rename")
		}
	}
	// Renaming onto a directory fails.
	mk := core.NewRequest(core.OpMkdir)
	mk.Path = "d"
	h.Run(t, s, mk)
	rn2 := core.NewRequest(core.OpRename)
	rn2.Path = "dst"
	rn2.Path2 = "d"
	if err := h.Run(t, s, rn2); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
}

// TestFsyncReportsWriteLostInCrash: an extension whose extents were still
// in the unflushed log buffer when the runtime crashed is gone after the
// replay. The next fsync must say so, once, instead of acknowledging it.
func TestFsyncReportsWriteLostInCrash(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	fsync := func() error {
		fy := core.NewRequest(core.OpFsync)
		fy.Path = "f"
		return h.Run(t, s, fy)
	}
	if err := h.Run(t, s, modtest.WriteReq("f", 0, bytes.Repeat([]byte{1}, 4096))); err != nil {
		t.Fatal(err)
	}
	if err := fsync(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(t, s, modtest.WriteReq("f", 4096, bytes.Repeat([]byte{2}, 9000))); err != nil {
		t.Fatal(err)
	}

	// Crash: the runtime repairs the module, which replays its on-device
	// log on the next request.
	if err := fsInstance(t, h, "fs").StateRepair(); err != nil {
		t.Fatal(err)
	}
	if err := fsync(); !errors.Is(err, labfs.ErrLostWrite) {
		t.Fatalf("fsync after losing the extension returned %v, want ErrLostWrite", err)
	}
	st := core.NewRequest(core.OpStat)
	st.Path = "f"
	if err := h.Run(t, s, st); err != nil || st.Result != 4096 {
		t.Fatalf("replayed size %d (%v), want the fsynced 4096", st.Result, err)
	}
	if err := fsync(); err != nil {
		t.Fatalf("second fsync: %v, want the loss reported once", err)
	}
}

func TestLogReplayRebuildsEverything(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	content := map[string][]byte{}
	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("dir/file-%02d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 3000+i*111)
		if err := h.Run(t, s, modtest.WriteReq(path, 0, data)); err != nil {
			t.Fatal(err)
		}
		content[path] = data
	}
	// Rename and delete a few to exercise those log records.
	rn := core.NewRequest(core.OpRename)
	rn.Path = "dir/file-00"
	rn.Path2 = "dir/renamed"
	h.Run(t, s, rn)
	content["dir/renamed"] = content["dir/file-00"]
	delete(content, "dir/file-00")
	ul := core.NewRequest(core.OpUnlink)
	ul.Path = "dir/file-01"
	h.Run(t, s, ul)
	delete(content, "dir/file-01")
	// Flush the metadata log.
	fy := core.NewRequest(core.OpFsync)
	fy.Path = "dir/renamed"
	if err := h.Run(t, s, fy); err != nil {
		t.Fatal(err)
	}

	// "Crash": build a brand-new LabFS instance over the same device with
	// replay enabled; it must reconstruct all inodes from the on-device log.
	h2 := modtest.New(t, device.NVMe, 0) // placeholder, we reuse dev0
	_ = h2
	reg2 := h.Registry
	fresh := &labfs.LabFS{}
	if err := fresh.Configure(core.Config{UUID: "fs", Attrs: map[string]string{
		"device": "dev0", "log_mb": "4", "replay": "true",
	}}, h.Env); err != nil {
		t.Fatal(err)
	}
	reg2.Register("fs", fresh) // hot-replace without StateUpdate: cold recovery

	for path, want := range content {
		r := modtest.ReadReq(path, 0, len(want))
		if err := h.Run(t, s, r); err != nil {
			t.Fatalf("read %s after replay: %v", path, err)
		}
		if !bytes.Equal(r.Data[:r.Result], want) {
			t.Fatalf("replayed content mismatch for %s", path)
		}
	}
	// Deleted file stays deleted.
	st := core.NewRequest(core.OpStat)
	st.Path = "dir/file-01"
	if err := h.Run(t, s, st); err == nil {
		t.Fatal("unlinked file resurrected by replay")
	}
	if fresh.Files() != len(content)+1 { // +1 for the dir? dirs are implicit unless mkdir'd
		// Directories were never mkdir'd here, so exactly len(content).
		if fresh.Files() != len(content) {
			t.Fatalf("replayed %d files, want %d", fresh.Files(), len(content))
		}
	}
}

func TestCheckpointOnLogPressure(t *testing.T) {
	h := modtest.New(t, device.NVMe, 256<<20)
	// Tiny 1 MiB log forces checkpoints.
	s := mountFS(t, h, "fs", map[string]string{"log_mb": "1"})
	// Each create+write produces several log entries; enough volume to wrap
	// the 256-block log multiple times.
	for i := 0; i < 2000; i++ {
		path := fmt.Sprintf("f-%04d", i%50) // overwrite a rotating set
		if err := h.Run(t, s, modtest.WriteReq(path, int64(i%7)*4096, make([]byte, 4096))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if fsInstance(t, h, "fs").Files() != 50 {
		t.Fatalf("files %d", fsInstance(t, h, "fs").Files())
	}
}

func TestReaddirAndStatMode(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	mk := core.NewRequest(core.OpMkdir)
	mk.Path = "d"
	mk.Mode = 0755
	h.Run(t, s, mk)
	for _, n := range []string{"d/b", "d/a", "d/c"} {
		h.Run(t, s, modtest.WriteReq(n, 0, []byte("x")))
	}
	h.Run(t, s, modtest.WriteReq("d/sub/nested", 0, []byte("y")))
	ls := core.NewRequest(core.OpReaddir)
	ls.Path = "d"
	h.Run(t, s, ls)
	want := []string{"a", "b", "c", "sub"}
	if len(ls.Names) != 4 {
		t.Fatalf("readdir %v", ls.Names)
	}
	for i, n := range want {
		if ls.Names[i] != n {
			t.Fatalf("readdir order %v", ls.Names)
		}
	}
	st := core.NewRequest(core.OpStat)
	st.Path = "d"
	h.Run(t, s, st)
	if st.Flags&(1<<16) == 0 {
		t.Fatal("stat of dir missing dir marker")
	}
}

func TestLabFSStateUpdatePreservesEverything(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	h.Run(t, s, modtest.WriteReq("keep", 0, []byte("survives upgrades")))
	next := &labfs.LabFS{}
	if err := next.Configure(core.Config{UUID: "fs", Attrs: map[string]string{"device": "dev0", "log_mb": "4"}}, h.Env); err != nil {
		t.Fatal(err)
	}
	if err := h.Registry.Swap("fs", next); err != nil {
		t.Fatal(err)
	}
	r := modtest.ReadReq("keep", 0, 17)
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if string(r.Data[:r.Result]) != "survives upgrades" {
		t.Fatal("upgrade lost data")
	}
}

// TestRandomOpsAgainstModel drives LabFS with random operations and checks
// every read against an in-memory reference model.
func TestRandomOpsAgainstModel(t *testing.T) {
	h := modtest.New(t, device.NVMe, 256<<20)
	s := mountFS(t, h, "fs", nil)
	rng := rand.New(rand.NewSource(99))
	model := map[string][]byte{}
	paths := []string{"p0", "p1", "p2", "p3", "p4"}

	extend := func(b []byte, n int) []byte {
		if len(b) >= n {
			return b
		}
		nb := make([]byte, n)
		copy(nb, b)
		return nb
	}

	for step := 0; step < 500; step++ {
		path := paths[rng.Intn(len(paths))]
		switch rng.Intn(5) {
		case 0, 1: // write
			off := int64(rng.Intn(30000))
			n := 1 + rng.Intn(9000)
			data := make([]byte, n)
			rng.Read(data)
			if err := h.Run(t, s, modtest.WriteReq(path, off, data)); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			cur := extend(model[path], int(off)+n)
			copy(cur[off:], data)
			model[path] = cur
		case 2: // read
			want, ok := model[path]
			if !ok {
				continue
			}
			off := int64(rng.Intn(len(want) + 1))
			n := 1 + rng.Intn(8000)
			r := modtest.ReadReq(path, off, n)
			if err := h.Run(t, s, r); err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			expect := []byte{}
			if off < int64(len(want)) {
				end := off + int64(n)
				if end > int64(len(want)) {
					end = int64(len(want))
				}
				expect = want[off:end]
			}
			if int64(len(expect)) != r.Result || !bytes.Equal(r.Data[:r.Result], expect) {
				t.Fatalf("step %d read mismatch at %s off=%d n=%d", step, path, off, n)
			}
		case 3: // truncate
			want, ok := model[path]
			if !ok {
				continue
			}
			to := int64(rng.Intn(len(want) + 1))
			tr := core.NewRequest(core.OpTruncate)
			tr.Path = path
			tr.Offset = to
			if err := h.Run(t, s, tr); err != nil {
				t.Fatalf("step %d truncate: %v", step, err)
			}
			model[path] = want[:to]
		case 4: // unlink
			if _, ok := model[path]; !ok {
				continue
			}
			ul := core.NewRequest(core.OpUnlink)
			ul.Path = path
			if err := h.Run(t, s, ul); err != nil {
				t.Fatalf("step %d unlink: %v", step, err)
			}
			delete(model, path)
		}
	}
	// Final verification of all files.
	for path, want := range model {
		r := modtest.ReadReq(path, 0, len(want))
		if err := h.Run(t, s, r); err != nil {
			t.Fatalf("final read %s: %v", path, err)
		}
		if !bytes.Equal(r.Data[:r.Result], want) {
			t.Fatalf("final mismatch %s", path)
		}
	}
}

func TestProvenanceTracking(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	fs := fsInstance(t, h, "fs")
	w := modtest.WriteReq("traced", 0, []byte("who wrote this"))
	w.Cred = core.Cred{UID: 501, GID: 501}
	if err := h.Run(t, s, w); err != nil {
		t.Fatal(err)
	}
	w2 := modtest.WriteReq("traced", 0, []byte("someone else did"))
	w2.Flags = 0
	w2.Cred = core.Cred{UID: 777, GID: 777}
	if err := h.Run(t, s, w2); err != nil {
		t.Fatal(err)
	}
	creator, _, last, ok := fs.Provenance("traced")
	if !ok || creator != 501 || last != 777 {
		t.Fatalf("provenance creator=%d last=%d ok=%v", creator, last, ok)
	}
	if _, _, _, ok := fs.Provenance("ghost"); ok {
		t.Fatal("provenance of missing file")
	}
}

func TestConfigureErrors(t *testing.T) {
	h := modtest.New(t, device.NVMe, 1<<20) // 1 MiB device
	f := &labfs.LabFS{}
	if err := f.Configure(core.Config{Attrs: map[string]string{}}, h.Env); err == nil {
		t.Fatal("no device accepted")
	}
	// Log bigger than the device.
	if err := f.Configure(core.Config{Attrs: map[string]string{"device": "dev0", "log_mb": "64"}}, h.Env); err == nil {
		t.Fatal("oversized log accepted")
	}
}

func TestGrepOffload(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	// Lines sized so several span block boundaries (block = 4096).
	var data []byte
	var want []string
	for i := 0; i < 200; i++ {
		line := fmt.Sprintf("line %03d %s", i, string(bytes.Repeat([]byte{'x'}, 50+i%37)))
		if i%10 == 0 {
			line += " ERROR hit"
			want = append(want, line)
		}
		data = append(data, line...)
		data = append(data, '\n')
	}
	if err := h.Run(t, s, modtest.WriteReq("app.log", 0, data)); err != nil {
		t.Fatal(err)
	}
	prog, err := pushdown.Default.Register("grep-error", `filter where substr "ERROR"`)
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRequest(core.OpScan)
	r.Path = "app.log"
	r.Prog = prog.Ref
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(string(r.Value), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("grep matched %d lines, want %d", len(got), len(want))
	}
	// Bytes moved: the 1-in-10 grep returns at least 3x fewer bytes than
	// reading the whole file to grep it client-side.
	if 3*len(r.Value) > len(data) {
		t.Fatalf("grep returned %d bytes of a %d-byte file, want >= 3x fewer", len(r.Value), len(data))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: %q != %q", i, got[i], want[i])
		}
	}

	// Aggregate flavor: count matches without emitting anything.
	cnt := core.NewRequest(core.OpScan)
	cnt.Path = "app.log"
	cnt.Prog = "grep-error"
	if err := h.Run(t, s, cnt); err != nil {
		t.Fatal(err)
	}
	// grep-error is a filter; register a count program for the same needle.
	cprog, err := pushdown.Default.Register("count-error", `count where substr "ERROR"`)
	if err != nil {
		t.Fatal(err)
	}
	cnt2 := core.NewRequest(core.OpScan)
	cnt2.Path = "app.log"
	cnt2.Prog = cprog.Ref
	if err := h.Run(t, s, cnt2); err != nil {
		t.Fatal(err)
	}
	if int(cnt2.Result) != len(want) {
		t.Fatalf("count = %d, want %d", cnt2.Result, len(want))
	}
}

func TestGrepOffloadErrors(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)

	// No program ref: labfs scans need one.
	bare := core.NewRequest(core.OpScan)
	bare.Path = "missing.log"
	if err := h.Run(t, s, bare); err == nil {
		t.Fatal("scan without program succeeded")
	}

	prog, err := pushdown.Default.Register("grep-x", `filter where substr "x"`)
	if err != nil {
		t.Fatal(err)
	}
	// Missing file.
	r := core.NewRequest(core.OpScan)
	r.Path = "missing.log"
	r.Prog = prog.Ref
	if err := h.Run(t, s, r); !errors.Is(err, labfs.ErrNotFound) {
		t.Fatalf("missing file: %v", err)
	}

	// Budget trip on a large file.
	if err := h.Run(t, s, modtest.WriteReq("big.log", 0, bytes.Repeat([]byte("xy\n"), 8000))); err != nil {
		t.Fatal(err)
	}
	tight := core.NewRequest(core.OpScan)
	tight.Path = "big.log"
	tight.Prog = prog.Ref
	tight.ProgMaxSteps = 10
	if err := h.Run(t, s, tight); !errors.Is(err, pushdown.ErrBudget) {
		t.Fatalf("budget trip: %v", err)
	}
}

func TestGrepOffloadSparse(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountFS(t, h, "fs", nil)
	// Write a block at offset 8192 leaving a 2-block hole; hole bytes read
	// as zeros and must not break line splitting.
	tail := []byte("hole-end MARK line\n")
	if err := h.Run(t, s, modtest.WriteReq("sparse.bin", 8192, tail)); err != nil {
		t.Fatal(err)
	}
	prog, err := pushdown.Default.Register("grep-mark", `filter where substr "MARK"`)
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRequest(core.OpScan)
	r.Path = "sparse.bin"
	r.Prog = prog.Ref
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(r.Value, []byte("MARK")) {
		t.Fatalf("sparse grep missed the marker: %d bytes", len(r.Value))
	}
}
