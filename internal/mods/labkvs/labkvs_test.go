package labkvs_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	_ "labstor/internal/mods/generic"
	"labstor/internal/mods/labkvs"
	"labstor/internal/mods/modtest"
	"labstor/internal/mods/pushdown"
)

func mountKVS(t *testing.T, h *modtest.Harness) *core.Stack {
	return h.Mount(t, "kv::/k",
		modtest.ChainVertex{UUID: "kvs", Type: labkvs.Type, Attrs: map[string]string{"device": "dev0", "log_mb": "2"}},
		modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
}

func kvsInstance(t *testing.T, h *modtest.Harness) *labkvs.LabKVS {
	m, _ := h.Registry.Get("kvs")
	return m.(*labkvs.LabKVS)
}

func put(t *testing.T, h *modtest.Harness, s *core.Stack, key string, val []byte) error {
	r := core.NewRequest(core.OpPut)
	r.Key = key
	r.Size = len(val)
	r.Data = val
	return h.Run(t, s, r)
}

func get(t *testing.T, h *modtest.Harness, s *core.Stack, key string) ([]byte, error) {
	r := core.NewRequest(core.OpGet)
	r.Key = key
	if err := h.Run(t, s, r); err != nil {
		return nil, err
	}
	return r.Value, nil
}

func TestPutGetDelHas(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	val := bytes.Repeat([]byte("v"), 10000) // multi-block value
	if err := put(t, h, s, "k1", val); err != nil {
		t.Fatal(err)
	}
	got, err := get(t, h, s, "k1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Fatal("value mismatch")
	}
	has := core.NewRequest(core.OpHas)
	has.Key = "k1"
	h.Run(t, s, has)
	if has.Result != 1 {
		t.Fatal("has")
	}
	del := core.NewRequest(core.OpDel)
	del.Key = "k1"
	if err := h.Run(t, s, del); err != nil {
		t.Fatal(err)
	}
	if _, err := get(t, h, s, "k1"); err == nil {
		t.Fatal("get after delete succeeded")
	}
	del2 := core.NewRequest(core.OpDel)
	del2.Key = "k1"
	if err := h.Run(t, s, del2); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestOverwriteReclaimsBlocks(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	kv := kvsInstance(t, h)
	put(t, h, s, "k", make([]byte, 40960))
	put(t, h, s, "k", []byte("tiny"))
	if kv.Keys() != 1 {
		t.Fatal("keys")
	}
	got, _ := get(t, h, s, "k")
	if string(got) != "tiny" {
		t.Fatalf("overwrite value %q", got)
	}
	// After freeing the old 10 blocks, we can still fill most of the store.
	puts, gets, dels := kv.Stats()
	if puts != 2 || gets != 1 || dels != 0 {
		t.Fatalf("stats %d/%d/%d", puts, gets, dels)
	}
}

func TestScanWithPrefix(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	for _, k := range []string{"a/1", "a/2", "b/1"} {
		put(t, h, s, k, []byte("x"))
	}
	sc := core.NewRequest(core.OpReaddir)
	sc.Path = "a/"
	h.Run(t, s, sc)
	if len(sc.Names) != 2 || sc.Names[0] != "a/1" {
		t.Fatalf("scan %v", sc.Names)
	}
	all := core.NewRequest(core.OpReaddir)
	h.Run(t, s, all)
	if len(all.Names) != 3 {
		t.Fatalf("scan all %v", all.Names)
	}
}

func TestEmptyKeyRejectedViaGeneric(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := h.Mount(t, "kv::/g",
		modtest.ChainVertex{UUID: "gen", Type: "labstor.generickvs"},
		modtest.ChainVertex{UUID: "kvs2", Type: labkvs.Type, Attrs: map[string]string{"device": "dev0", "log_mb": "2"}},
		modtest.ChainVertex{UUID: "drv2", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
	r := core.NewRequest(core.OpPut)
	r.Data = []byte("x")
	r.Size = 1
	if err := h.Run(t, s, r); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestReplayRebuildsIndex(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	vals := map[string][]byte{}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 1000+i*97)
		put(t, h, s, k, v)
		vals[k] = v
	}
	// Delete some.
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("key-%02d", i)
		del := core.NewRequest(core.OpDel)
		del.Key = k
		h.Run(t, s, del)
		delete(vals, k)
	}
	// Flush the KVS log.
	fl := core.NewRequest(core.OpFsync)
	if err := h.Run(t, s, fl); err != nil {
		t.Fatal(err)
	}

	// Cold restart: fresh instance with replay.
	fresh := &labkvs.LabKVS{}
	if err := fresh.Configure(core.Config{UUID: "kvs", Attrs: map[string]string{
		"device": "dev0", "log_mb": "2", "replay": "true",
	}}, h.Env); err != nil {
		t.Fatal(err)
	}
	h.Registry.Register("kvs", fresh)

	for k, want := range vals {
		got, err := get(t, h, s, k)
		if err != nil {
			t.Fatalf("get %s after replay: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replayed value mismatch for %s", k)
		}
	}
	if _, err := get(t, h, s, "key-00"); err == nil {
		t.Fatal("deleted key resurrected")
	}
	if fresh.Keys() != len(vals) {
		t.Fatalf("replayed %d keys, want %d", fresh.Keys(), len(vals))
	}
}

// TestReplayDropsUnloggedPut: a crash replay rebuilds the index from the log
// alone. A put that never reached the log is lost, not left in the index
// pointing at a block the rebuilt allocator hands to the next put.
func TestReplayDropsUnloggedPut(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	put(t, h, s, "k1", []byte("one"))
	if err := h.Run(t, s, core.NewRequest(core.OpFsync)); err != nil {
		t.Fatal(err)
	}
	put(t, h, s, "k2", []byte("two")) // not flushed
	kvsInstance(t, h).StateRepair()
	put(t, h, s, "k3", []byte("three"))
	if got, err := get(t, h, s, "k2"); !errors.Is(err, labkvs.ErrNoKey) {
		t.Fatalf("unlogged put after replay: %q, %v; want ErrNoKey", got, err)
	}
	for k, want := range map[string]string{"k1": "one", "k3": "three"} {
		if got, err := get(t, h, s, k); err != nil || string(got) != want {
			t.Fatalf("get %s: %q, %v", k, got, err)
		}
	}
}

func TestStateUpdatePreservesIndex(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	put(t, h, s, "persist", []byte("me"))
	next := &labkvs.LabKVS{}
	next.Configure(core.Config{UUID: "kvs", Attrs: map[string]string{"device": "dev0", "log_mb": "2"}}, h.Env)
	if err := h.Registry.Swap("kvs", next); err != nil {
		t.Fatal(err)
	}
	got, err := get(t, h, s, "persist")
	if err != nil || string(got) != "me" {
		t.Fatalf("after upgrade: %q %v", got, err)
	}
}

func TestQuickPutGetModel(t *testing.T) {
	h := modtest.New(t, device.NVMe, 128<<20)
	s := mountKVS(t, h)
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(5))
	f := func(keyByte uint8, val []byte) bool {
		key := fmt.Sprintf("k%d", keyByte%16)
		if len(val) == 0 || rng.Intn(4) == 0 {
			// Delete path.
			del := core.NewRequest(core.OpDel)
			del.Key = key
			err := h.Run(t, s, del)
			_, existed := model[key]
			delete(model, key)
			return (err == nil) == existed
		}
		if put(t, h, s, key, val) != nil {
			return false
		}
		cp := make([]byte, len(val))
		copy(cp, val)
		model[key] = cp
		got, err := get(t, h, s, key)
		return err == nil && bytes.Equal(got, model[key])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestUnsupportedOp(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	r := core.NewRequest(core.OpRename)
	if err := h.Run(t, s, r); err == nil {
		t.Fatal("rename on a KVS succeeded")
	}
}

// scanReq builds an OpScan request carrying a pushdown program ref.
func scanReq(prefix, prog string) *core.Request {
	r := core.NewRequest(core.OpScan)
	r.Key = prefix
	r.Prog = prog
	return r
}

func TestScanPushdownFilter(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	// Records: u32 tag at offset 0; tag 1 for even indices, 2 for odd.
	want := map[string]bool{}
	for i := 0; i < 10; i++ {
		val := make([]byte, 100)
		tag := uint32(2)
		if i%2 == 0 {
			tag = 1
			want[fmt.Sprintf("r/%02d", i)] = true
		}
		binary.LittleEndian.PutUint32(val, tag)
		val[4] = byte(i)
		if err := put(t, h, s, fmt.Sprintf("r/%02d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	put(t, h, s, "other/x", []byte{1, 0, 0, 0}) // outside the prefix

	prog, err := pushdown.Default.Register("tag1", "filter where u32@0 == 1")
	if err != nil {
		t.Fatal(err)
	}
	r := scanReq("r/", prog.Ref)
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	if err := pushdown.DecodeKV(r.Value, func(key string, val []byte) error {
		if len(val) != 100 || binary.LittleEndian.Uint32(val) != 1 {
			return fmt.Errorf("bad match %q: %d bytes tag %d", key, len(val), binary.LittleEndian.Uint32(val))
		}
		got[key] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("matched %v, want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing match %q", k)
		}
	}

	// Bytes moved: a filter matching 1 record in 100 must return at least
	// 3x fewer payload bytes than fetching every value to filter client-side.
	fetched := 0
	for i := 0; i < 100; i++ {
		val := make([]byte, 256)
		binary.LittleEndian.PutUint32(val, uint32(i))
		key := fmt.Sprintf("s/%03d", i)
		if err := put(t, h, s, key, val); err != nil {
			t.Fatal(err)
		}
		v, err := get(t, h, s, key)
		if err != nil {
			t.Fatal(err)
		}
		fetched += len(v)
	}
	sel1, err := pushdown.Default.Register("sel1", "filter where u32@0 < 1")
	if err != nil {
		t.Fatal(err)
	}
	r = scanReq("s/", sel1.Ref)
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	matches := 0
	if err := pushdown.DecodeKV(r.Value, func(string, []byte) error { matches++; return nil }); err != nil {
		t.Fatal(err)
	}
	if matches != 1 || 3*len(r.Value) > fetched {
		t.Fatalf("1%% filter returned %d records in %d bytes; fetching all moves %d bytes, want 1 record and >= 3x fewer", matches, len(r.Value), fetched)
	}
}

func TestScanPushdownAggregate(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	var wantSum uint64
	for i := 0; i < 8; i++ {
		val := make([]byte, 64)
		binary.LittleEndian.PutUint32(val, uint32(i%2))
		binary.LittleEndian.PutUint64(val[4:], uint64(i*10))
		if i%2 == 1 {
			wantSum += uint64(i * 10)
		}
		put(t, h, s, fmt.Sprintf("a/%d", i), val)
	}
	prog, err := pushdown.Default.Register("sum-odd", "sum u64@4 where u32@0 == 1")
	if err != nil {
		t.Fatal(err)
	}
	// Address by registered name: the mod resolves names too.
	r := scanReq("a/", "sum-odd")
	if err := h.Run(t, s, r); err != nil {
		t.Fatal(err)
	}
	if uint64(r.Result) != wantSum {
		t.Fatalf("sum = %d, want %d", r.Result, wantSum)
	}
	if len(r.Value) != 0 {
		t.Fatalf("aggregate scan emitted %d bytes", len(r.Value))
	}
	_ = prog
}

func TestScanPushdownUnknownProgram(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	put(t, h, s, "k", []byte{1, 2, 3, 4})
	r := scanReq("", "pd:doesnotexist0000")
	if err := h.Run(t, s, r); !errors.Is(err, pushdown.ErrUnknownProgram) {
		t.Fatalf("unknown program: %v", err)
	}
}

func TestScanPushdownBudgetTrip(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	s := mountKVS(t, h)
	for i := 0; i < 4; i++ {
		put(t, h, s, fmt.Sprintf("b/%d", i), make([]byte, 4096))
	}
	prog, err := pushdown.Default.Register("count-all", "count")
	if err != nil {
		t.Fatal(err)
	}
	r := scanReq("b/", prog.Ref)
	r.ProgMaxBytes = 8192 // 4 records × 4096 B blows through this
	if err := h.Run(t, s, r); !errors.Is(err, pushdown.ErrBudget) {
		t.Fatalf("budget trip: %v", err)
	}
}

func TestScanPushdownGateVertex(t *testing.T) {
	h := modtest.New(t, device.NVMe, 64<<20)
	// Gate with a deny-everything-but allow-list sits above the store.
	s := h.Mount(t, "kv::/gated",
		modtest.ChainVertex{UUID: "gate", Type: pushdown.Type, Attrs: map[string]string{
			"allow":              "allowed-*",
			"max_scan_mb":        "1",
			"prog.allowed-count": "count",
			"prog.blocked-count": "count where u32@0 == 0",
		}},
		modtest.ChainVertex{UUID: "kvs3", Type: labkvs.Type, Attrs: map[string]string{"device": "dev0", "log_mb": "2"}},
		modtest.ChainVertex{UUID: "drv3", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
	put(t, h, s, "g/1", []byte{0, 0, 0, 0})
	put(t, h, s, "g/2", []byte{0, 0, 0, 0})

	ok := scanReq("g/", "allowed-count")
	if err := h.Run(t, s, ok); err != nil {
		t.Fatal(err)
	}
	if ok.Result != 2 {
		t.Fatalf("gated count = %d, want 2", ok.Result)
	}
	if ok.ProgMaxBytes != 1<<20 {
		t.Fatalf("gate did not clamp budget: %d", ok.ProgMaxBytes)
	}

	denied := scanReq("g/", "blocked-count")
	if err := h.Run(t, s, denied); !errors.Is(err, pushdown.ErrDenied) {
		t.Fatalf("gate deny: %v", err)
	}

	// Non-scan traffic passes through the gate untouched.
	got, err := get(t, h, s, "g/1")
	if err != nil || len(got) != 4 {
		t.Fatalf("get through gate: %v %v", got, err)
	}
}
