package labstor_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"labstor"
	"labstor/internal/spec"
)

const testStack = `
mount: fs::/t
mods:
  - uuid: fs
    type: labstor.labfs
    attrs:
      device: nvme0
      log_mb: 4
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`

const testKVStack = `
mount: kv::/t
mods:
  - uuid: kvs
    type: labstor.labkvs
    attrs:
      device: nvme0
      log_mb: 4
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`

func newPlatform(t *testing.T) *labstor.Platform {
	t.Helper()
	p := labstor.NewPlatform(labstor.Config{Workers: 2})
	t.Cleanup(p.Close)
	p.AddDevice("nvme0", labstor.NVMe, 128<<20)
	if _, err := p.MountSpec(testStack); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MountSpec(testKVStack); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFacadeFileAPI(t *testing.T) {
	p := newPlatform(t)
	s := p.Connect()
	defer s.Close()

	f, err := s.Create("fs::/t/doc.txt")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("facade file API")
	if n, err := f.WriteAt(msg, 0); err != nil || n != len(msg) {
		t.Fatalf("write %d %v", n, err)
	}
	if _, err := f.Append([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg)+1)
	if n, err := f.ReadAt(buf, 0); err != nil || n != len(buf) {
		t.Fatalf("read %d %v", n, err)
	}
	if !bytes.Equal(buf, append(msg, '!')) {
		t.Fatalf("content %q", buf)
	}
	if sz, _ := f.Size(); sz != int64(len(msg)+1) {
		t.Fatalf("size %d", sz)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Path() != "fs::/t/doc.txt" {
		t.Fatal("path")
	}

	// Reopen through Open.
	g, err := s.Open("fs::/t/doc.txt")
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := g.Size(); sz != int64(len(msg)+1) {
		t.Fatal("reopened size")
	}
}

func TestFacadePathOps(t *testing.T) {
	p := newPlatform(t)
	s := p.Connect()
	if err := s.Mkdir("fs::/t/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("fs::/t/dir/a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("fs::/t/dir/a", "fs::/t/dir/b"); err != nil {
		t.Fatal(err)
	}
	names, err := s.ReadDir("fs::/t/dir")
	if err != nil || len(names) != 1 || names[0] != "b" {
		t.Fatalf("readdir %v %v", names, err)
	}
	if err := s.Remove("fs::/t/dir/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("fs::/t/dir/b"); err == nil {
		t.Fatal("stat of removed file succeeded")
	}
	// Rename across mounts is rejected.
	if err := s.Rename("fs::/t/x", "kv::/t/x"); err == nil {
		t.Fatal("cross-stack rename succeeded")
	}
	// Unserved path.
	if _, err := s.Open("nowhere::/x"); err == nil {
		t.Fatal("unserved path opened")
	}
}

func TestFacadeKVAPI(t *testing.T) {
	p := newPlatform(t)
	s := p.Connect()
	kv := s.KV("kv::/t")
	if err := kv.Put("alpha", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("beta", []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, err := kv.Get("alpha")
	if err != nil || string(v) != "1" {
		t.Fatalf("get %q %v", v, err)
	}
	ok, _ := kv.Has("alpha")
	if !ok {
		t.Fatal("has")
	}
	keys, _ := kv.Keys("")
	if len(keys) != 2 {
		t.Fatalf("keys %v", keys)
	}
	if err := kv.Del("alpha"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := kv.Has("alpha"); ok {
		t.Fatal("deleted key exists")
	}
}

func TestFacadeMountManagement(t *testing.T) {
	p := newPlatform(t)
	if len(p.Mounts()) != 2 {
		t.Fatalf("mounts %v", p.Mounts())
	}
	if err := p.Unmount("kv::/t"); err != nil {
		t.Fatal(err)
	}
	if len(p.Mounts()) != 1 {
		t.Fatal("unmount")
	}
	if p.Runtime() == nil {
		t.Fatal("runtime accessor")
	}
}

func TestFacadeVirtualClock(t *testing.T) {
	p := newPlatform(t)
	s := p.Connect()
	before := s.Clock()
	f, _ := s.Create("fs::/t/clk")
	f.WriteAt(make([]byte, 8192), 0)
	if s.Clock() <= before {
		t.Fatal("virtual clock did not advance")
	}
}

func TestFacadePermissionsIntegration(t *testing.T) {
	p := labstor.NewPlatform(labstor.Config{Workers: 1})
	defer p.Close()
	p.AddDevice("nvme0", labstor.NVMe, 64<<20)
	if _, err := p.MountSpec(`
mount: fs::/sec
mods:
  - uuid: perm
    type: labstor.perm
    attrs:
      owner: "0"
      mode: "0600"
  - uuid: fs
    type: labstor.labfs
    attrs:
      device: nvme0
      log_mb: 4
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`); err != nil {
		t.Fatal(err)
	}
	root := p.ConnectAs(0, 0)
	if _, err := root.Create("fs::/sec/x"); err != nil {
		t.Fatal(err)
	}
	user := p.ConnectAs(1001, 1001)
	if _, err := user.Open("fs::/sec/x"); err == nil {
		t.Fatal("unprivileged open succeeded")
	}
}

// TestFacadePooledRequests: every facade call recycles its request, and what
// the caller was handed stays the caller's — a Get result is never recycled
// under them by later calls (run with -tags labstor_debug, a recycled buffer
// is also poisoned), and a caller's ReadAt buffer never enters an arena.
func TestFacadePooledRequests(t *testing.T) {
	p := newPlatform(t)
	s := p.Connect()
	defer s.Close()
	kv := s.KV("kv::/t")

	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 4096) }
	const keys = 32
	for i := 0; i < keys; i++ {
		if err := kv.Put(fmt.Sprint("k", i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := p.Snapshot().Metrics.Gauges["reqpool.hits"]
	kept := make([][]byte, keys)
	for round := 0; round < 8; round++ {
		for i := 0; i < keys; i++ {
			v, err := kv.Get(fmt.Sprint("k", i))
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				kept[i] = v
			}
		}
	}
	for i, v := range kept {
		if !bytes.Equal(v, value(i)) {
			t.Fatalf("result of the first Get of k%d changed under its holder", i)
		}
	}
	// Half, not all: under the race detector sync.Pool drops a share of Puts.
	if hits := p.Snapshot().Metrics.Gauges["reqpool.hits"] - before; hits < 4*keys {
		t.Fatalf("request pool served %v of %d facade calls", hits, 8*keys)
	}

	f, err := s.Create("fs::/t/pooled.bin")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("labstor!"), 1024)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(want) {
		t.Fatalf("ReadAt: %d %v", n, err)
	}
	for i := 0; i < 64; i++ {
		if _, err := kv.Get("k0"); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("caller's ReadAt buffer was rewritten by later calls")
	}
	if _, err := s.Stat("fs::/t/missing"); err == nil {
		t.Fatal("Stat of a missing file succeeded")
	}
}

// TestFacadeGetResultIsCallersOwn: a Get result may be written by its
// caller. On a cache miss the LRU keeps the driver's fill as its page, the
// same buffer the get answers with, so the facade must not hand that page
// over: rewriting the returned slice would change every later Get of the key.
func TestFacadeGetResultIsCallersOwn(t *testing.T) {
	p := labstor.NewPlatform(labstor.Config{Workers: 2})
	defer p.Close()
	p.AddDevice("nvme0", labstor.NVMe, 128<<20)
	if _, err := p.MountSpec(`
mount: kv::/own
mods:
  - uuid: kvs
    type: labstor.labkvs
    attrs:
      device: nvme0
      log_mb: 4
  - uuid: cache
    type: labstor.lru
    attrs:
      capacity_mb: 1
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`); err != nil {
		t.Fatal(err)
	}
	s := p.Connect()
	defer s.Close()
	kv := s.KV("kv::/own")

	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 4096) }
	// 512 pages through a 256-page cache: k0's page is evicted, so the
	// first Get below misses and its fill becomes the cached page.
	for i := 0; i < 512; i++ {
		if err := kv.Put(fmt.Sprint("k", i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ { // a miss, then a hit
		v, err := kv.Get("k0")
		if err != nil || !bytes.Equal(v, value(0)) {
			t.Fatalf("round %d: Get(k0) = %d bytes, %v", round, len(v), err)
		}
		for i := range v {
			v[i] = 0xEE
		}
	}
	if v, err := kv.Get("k0"); err != nil || !bytes.Equal(v, value(0)) {
		t.Fatalf("a caller's write into its Get result reached the store: [0] = %#x, %v", v[0], err)
	}
}

// Stack documents for the attribute tests: each has a vertex "m" whose
// attribute attr is set to %s.
const attrDrv = "  - uuid: drv\n    type: labstor.kernel_driver\n    attrs:\n      device: nvme0\n"

func attrFSStack(mods string) string {
	return "mount: fs::/a\nmods:\n" + mods +
		"  - uuid: fs\n    type: labstor.labfs\n    attrs:\n      device: nvme0\n      log_mb: 4\n"
}

// blockAttr puts m between LabFS and the driver; attrs are its others.
func blockAttr(typ, attrs, attr string) string {
	return attrFSStack("") + "  - uuid: m\n    type: " + typ + "\n    attrs:\n" + attrs + "      " + attr + ": %s\n" + attrDrv
}

func fsAttr(attr string) string {
	return "mount: fs::/a\nmods:\n  - uuid: m\n    type: labstor.labfs\n    attrs:\n      device: nvme0\n      log_mb: 4\n      " + attr + ": %s\n" + attrDrv
}

func kvsAttr(attr string) string {
	return "mount: kv::/a\nmods:\n  - uuid: m\n    type: labstor.labkvs\n    attrs:\n      device: nvme0\n      log_mb: 4\n      " + attr + ": %s\n" + attrDrv
}

// anyAttr puts m above LabFS.
func anyAttr(typ, attr string) string {
	return attrFSStack("  - uuid: m\n    type: "+typ+"\n    attrs:\n      "+attr+": %s\n") + attrDrv
}

// TestMountRejectsNonIntegerAttrs mounts, for every integer mod attribute,
// a stack that sets it to a value that is not an integer: the mount must
// fail and name the vertex, the attribute and the value. The same stack
// with an integer there must mount.
func TestMountRejectsNonIntegerAttrs(t *testing.T) {
	for _, tc := range []struct {
		attr, doc string
	}{
		{"capacity_mb", blockAttr("labstor.lru", "", "capacity_mb")},
		{"log_mb", fsAttr("log_mb")},
		{"shards", fsAttr("shards")},
		{"log_mb", kvsAttr("log_mb")},
		{"shards", kvsAttr("shards")},
		{"window", blockAttr("labstor.readahead", "", "window")},
		{"trigger", blockAttr("labstor.readahead", "", "trigger")},
		{"owner", anyAttr("labstor.perm", "owner")},
		{"group", anyAttr("labstor.perm", "group")},
		{"cost_ns", anyAttr("labstor.dummy", "cost_ns")},
		{"max_scan_mb", anyAttr("labstor.pushdown", "max_scan_mb")},
		{"max_steps", anyAttr("labstor.pushdown", "max_steps")},
	} {
		if err := mountOn(fmt.Sprintf(tc.doc, "8")); err != nil {
			t.Errorf("%s = 8: %v", tc.attr, err)
		}
		want := fmt.Sprintf(`core: vertex "m" attribute %q: "alice" is not an integer`, tc.attr)
		if err := mountOn(fmt.Sprintf(tc.doc, "alice")); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s = alice: err = %v, want it to contain %s", tc.attr, err, want)
		}
	}
}

// TestMountRejectsUnreadAttrs mounts stacks whose vertex "m" sets an
// attribute its mod does not read: the retired geometry knobs, a misspelt
// key in a sync-mode stack and an unknown key on pushdown. Each mount must
// fail naming the vertex and the key. Pushdown's prog.<name> keys are
// read, so a program still mounts.
func TestMountRejectsUnreadAttrs(t *testing.T) {
	const dev = "      device: nvme0\n"
	syncKVS := "mount: kv::/a\nrules:\n  exec_mode: sync\nmods:\n  - uuid: m\n    type: labstor.labkvs\n    attrs:\n      device: nvme0\n      lgo_mb: %s\n" + attrDrv
	for _, tc := range []struct {
		attr, doc string
	}{
		{"page_kb", blockAttr("labstor.lru", "", "page_kb")},
		{"block_kb", fsAttr("block_kb")},
		{"pools", fsAttr("pools")},
		{"block_kb", kvsAttr("block_kb")},
		{"block_kb", blockAttr("labstor.readahead", "", "block_kb")},
		{"capacity_blocks", blockAttr("labstor.readahead", "", "capacity_blocks")},
		{"steer_max_kb", blockAttr("labstor.blkswitch", dev, "steer_max_kb")},
		{"device", blockAttr("labstor.lru", "", "device")},
		{"lgo_mb", syncKVS},
		{"max_scan_kb", anyAttr("labstor.pushdown", "max_scan_kb")},
	} {
		err := mountOn(fmt.Sprintf(tc.doc, "8"))
		if err == nil || !strings.Contains(err.Error(), `vertex "m"`) || !strings.Contains(err.Error(), fmt.Sprintf("attribute %q", tc.attr)) {
			t.Errorf("%s = 8: err = %v, want it to name vertex \"m\" and attribute %q", tc.attr, err, tc.attr)
		}
	}
	if err := mountOn(fmt.Sprintf(anyAttr("labstor.pushdown", "prog.unread-probe"), "count")); err != nil {
		t.Errorf("pushdown with a program: %v", err)
	}
}

// TestShippedStacksMount mounts every stack file in configs/ on a platform
// that has each device the file names (PMEM, which every driver accepts).
func TestShippedStacksMount(t *testing.T) {
	paths, err := filepath.Glob("configs/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	stacks := 0
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		root, err := spec.Parse(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if root.Get("mount") == nil {
			continue // a runtime config
		}
		ss, err := spec.StackFromNode(root)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		stacks++
		p := labstor.NewPlatform(labstor.Config{Workers: 1})
		for _, v := range ss.Vertices {
			if name := v.Attrs["device"]; name != "" && p.Runtime().Env.Devices[name] == nil {
				p.AddDevice(name, labstor.PMEM, 256<<20)
			}
		}
		if _, err := p.MountSpec(string(raw)); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		p.Close()
	}
	if stacks == 0 {
		t.Fatal("no stack file in configs/")
	}
}

// mountOn mounts spec on a platform of its own, so no module instance of
// an earlier mount is reused.
func mountOn(spec string) error {
	p := labstor.NewPlatform(labstor.Config{Workers: 1})
	defer p.Close()
	p.AddDevice("nvme0", labstor.NVMe, 64<<20)
	_, err := p.MountSpec(spec)
	return err
}
