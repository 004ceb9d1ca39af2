package labfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	"labstor/internal/mods/modtest"
)

// mountLog mounts LabFS with a logMB-MiB log over a kernel driver and
// returns the harness, the stack and the instance.
func mountLog(t *testing.T, logMB string) (*modtest.Harness, *core.Stack, *LabFS) {
	t.Helper()
	h := modtest.New(t, device.NVMe, 64<<20)
	s := h.Mount(t, "fs::/fs",
		modtest.ChainVertex{UUID: "fs", Type: Type, Attrs: map[string]string{"device": "dev0", "log_mb": logMB}},
		modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
	m, err := h.Registry.Get("fs")
	if err != nil {
		t.Fatal(err)
	}
	return h, s, m.(*LabFS)
}

// deviceLap returns the lap stamped on the log's block 0: a checkpoint
// starts a new one there.
func deviceLap(h *modtest.Harness) uint32 {
	var b [4]byte
	h.Dev.ReadAt(b[:], 0)
	return binary.LittleEndian.Uint32(b[:])
}

func run(t *testing.T, h *modtest.Harness, s *core.Stack, op core.Op, path, path2 string) error {
	t.Helper()
	r := core.NewRequest(op)
	r.Path, r.Path2 = path, path2
	return h.Run(t, s, r)
}

// TestMetaLogAppendFlushReplay: a cold restart rebuilds every logged file,
// and log sequence numbers (creation provenance) resume after the last one
// replayed.
func TestMetaLogAppendFlushReplay(t *testing.T) {
	h, s, _ := mountLog(t, "4")
	for i := 0; i < 300; i++ {
		if err := run(t, h, s, core.OpCreate, fmt.Sprintf("f-%03d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(t, h, s, core.OpFsync, "", ""); err != nil {
		t.Fatal(err)
	}

	fresh := &LabFS{}
	if err := fresh.Configure(core.Config{UUID: "fs", Attrs: map[string]string{
		"device": "dev0", "log_mb": "4", "replay": "true",
	}}, h.Env); err != nil {
		t.Fatal(err)
	}
	h.Registry.Register("fs", fresh)
	if err := run(t, h, s, core.OpCreate, "next", ""); err != nil {
		t.Fatal(err)
	}
	if fresh.Files() != 301 {
		t.Fatalf("replayed %d files, want 300 + 1", fresh.Files()-1)
	}
	for _, row := range []struct {
		path string
		seq  uint64
	}{{"f-000", 1}, {"f-299", 300}} {
		if _, seq, _, ok := fresh.Provenance(row.path); !ok || seq != row.seq {
			t.Fatalf("%s: created at seq %d (%v), want %d", row.path, seq, ok, row.seq)
		}
	}
	if seq := fresh.seq.Load(); seq != 301 {
		t.Fatalf("the create after replay took seq %d, want 301", seq)
	}
}

// TestMetaLogOversizedEntryRejected: an entry that cannot fit one log block
// fails its operation instead of corrupting the log.
func TestMetaLogOversizedEntryRejected(t *testing.T) {
	h, s, _ := mountLog(t, "4")
	if err := run(t, h, s, core.OpCreate, strings.Repeat("x", 5000), ""); err == nil {
		t.Fatal("oversized entry accepted")
	}
	if err := run(t, h, s, core.OpCreate, "short", ""); err != nil {
		t.Fatalf("log unusable after a rejected entry: %v", err)
	}
}

// TestMetaLogTornTailStopsCleanly: a torn write in the middle of the log
// block leaves the files logged before it and none after.
func TestMetaLogTornTailStopsCleanly(t *testing.T) {
	h, s, f := mountLog(t, "4")
	for i := 0; i < 10; i++ {
		run(t, h, s, core.OpCreate, fmt.Sprintf("ok-%d", i), "")
	}
	if err := run(t, h, s, core.OpFsync, "", ""); err != nil {
		t.Fatal(err)
	}
	h.Dev.WriteAt([]byte(`{"broken`), 200)
	f.StateRepair()
	run(t, h, s, core.OpStat, "ok-0", "")
	n := f.Files()
	if n == 0 || n >= 10 {
		t.Fatalf("torn-tail replay kept %d files", n)
	}
	for i := 0; i < n; i++ {
		if err := run(t, h, s, core.OpStat, fmt.Sprintf("ok-%d", i), ""); err != nil {
			t.Fatalf("file %d of the %d before the tear: %v", i, n, err)
		}
	}
}

// TestReplayStopsAtPreviousLap: after two checkpoints, the current lap is
// shorter than the one before it, and the older lap's records still sit on
// the device past the new lap's end. Replay must stop at the lap boundary:
// an old "unlink g" read after the new records would delete a file whose
// data was written and fsynced since.
func TestReplayStopsAtPreviousLap(t *testing.T) {
	h, s, f := mountLog(t, "1")
	// Renames with long names fill the log quickly.
	a, b := strings.Repeat("a", 150), strings.Repeat("b", 150)
	if err := run(t, h, s, core.OpCreate, a, ""); err != nil {
		t.Fatal(err)
	}
	rename := func() {
		if err := run(t, h, s, core.OpRename, a, b); err != nil {
			t.Fatal(err)
		}
		a, b = b, a
	}
	perLap := 0
	for deviceLap(h) < 2 {
		rename()
		perLap++
	}
	for i := 0; i < perLap*3/4; i++ {
		rename()
	}
	if lap := deviceLap(h); lap != 2 {
		t.Fatalf("lap %d late in the second lap", lap)
	}
	run(t, h, s, core.OpCreate, "g", "")
	run(t, h, s, core.OpUnlink, "g", "")
	for deviceLap(h) < 3 {
		rename()
	}
	data := bytes.Repeat([]byte{7}, 8192)
	if err := h.Run(t, s, modtest.WriteReq("g", 0, data)); err != nil {
		t.Fatal(err)
	}
	if err := run(t, h, s, core.OpFsync, "g", ""); err != nil {
		t.Fatal(err)
	}

	f.StateRepair()
	r := modtest.ReadReq("g", 0, len(data))
	if err := h.Run(t, s, r); err != nil {
		t.Fatalf("read g after replay: %v", err)
	}
	if r.Result != int64(len(data)) || !bytes.Equal(r.Data, data) {
		t.Fatalf("g after replay: %d bytes", r.Result)
	}
}

// TestReplayAllocatesLikeAFreshMount: a replay of a log with no extents
// rebuilds the allocator a fresh mount builds, so the same writes land on
// the same physical blocks.
func TestReplayAllocatesLikeAFreshMount(t *testing.T) {
	placement := func(repair bool) map[string]map[int64]int64 {
		h, s, f := mountLog(t, "4")
		for i := 0; i < 3; i++ {
			if err := run(t, h, s, core.OpCreate, fmt.Sprintf("f%d", i), ""); err != nil {
				t.Fatal(err)
			}
		}
		if err := run(t, h, s, core.OpFsync, "", ""); err != nil {
			t.Fatal(err)
		}
		if repair {
			f.StateRepair()
		}
		out := make(map[string]map[int64]int64)
		for i := 0; i < 3; i++ {
			path := fmt.Sprintf("f%d", i)
			if err := h.Run(t, s, modtest.WriteReq(path, 0, bytes.Repeat([]byte{byte(i)}, (i+1)*5000))); err != nil {
				t.Fatal(err)
			}
			ino, _ := f.table.Get(path)
			out[path] = ino.Blocks
		}
		return out
	}
	fresh, replayed := placement(false), placement(true)
	for path, want := range fresh {
		if got := replayed[path]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: blocks %v after a replay, %v on a fresh mount", path, got, want)
		}
	}
}
