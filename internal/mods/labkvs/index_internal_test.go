package labkvs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/driver"
	"labstor/internal/mods/modtest"
	"labstor/internal/mods/pushdown"
)

// kvHarness mounts LabKVS over the kernel driver on a 16 MiB device with a
// 1 MiB log: 256 blocks, which a few hundred records with 3 KB keys fill, so
// that the log checkpoints from the index.
func kvHarness(t *testing.T) (*modtest.Harness, *core.Stack, *LabKVS) {
	h := modtest.New(t, device.NVMe, 16<<20)
	s := h.Mount(t, "kv::/k",
		modtest.ChainVertex{UUID: "kvs", Type: Type, Attrs: map[string]string{"device": "dev0", "log_mb": "1"}},
		modtest.ChainVertex{UUID: "drv", Type: driver.KernelDriverType, Attrs: map[string]string{"device": "dev0"}},
	)
	m, _ := h.Registry.Get("kvs")
	return h, s, m.(*LabKVS)
}

// viewKey returns key as a string whose bytes are buf's, the way the serve
// plane hands a module a key in its connection's slab.
func viewKey(buf []byte, key string) string {
	n := copy(buf, key)
	if n == 0 {
		return ""
	}
	return unsafe.String(&buf[0], n)
}

// storedKey returns the entry's key and the key the shard's map stores for
// it, which must be one string.
func storedKey(t *testing.T, k *LabKVS, key string) (entryKey, mapKey string) {
	t.Helper()
	sh := k.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ent, ok := sh.recs[key]
	if !ok {
		t.Fatalf("%q not in the index", key)
	}
	for mk := range sh.recs {
		if mk == key {
			mapKey = mk
		}
	}
	return ent.key, mapKey
}

// TestIndexOwnsItsKeys: a new key is stored as a copy, not as a view of the
// caller's bytes, and an overwrite put whose key lies in other bytes keeps
// the key the index already holds — in the entry and in the map, which an
// assignment under the caller's key would have replaced.
func TestIndexOwnsItsKeys(t *testing.T) {
	h, s, k := kvHarness(t)
	put := func(key string, val []byte) {
		r := core.NewRequest(core.OpPut)
		r.Key, r.Data, r.Size = key, val, len(val)
		if err := h.Run(t, s, r); err != nil {
			t.Fatal(err)
		}
	}
	slab1, slab2 := make([]byte, 64), make([]byte, 64)
	put(viewKey(slab1, "alias/key"), []byte("one"))
	ek, mk := storedKey(t, k, "alias/key")
	first := unsafe.StringData(ek)
	if first == &slab1[0] || unsafe.StringData(mk) == &slab1[0] {
		t.Fatal("a new key is stored as a view of the caller's bytes")
	}
	if unsafe.StringData(mk) != first {
		t.Fatal("the map's key is not the entry's key")
	}

	put(viewKey(slab2, "alias/key"), bytes.Repeat([]byte{2}, 3*k.blockSize))
	ek, mk = storedKey(t, k, "alias/key")
	if unsafe.StringData(ek) != first || unsafe.StringData(mk) != first {
		t.Fatalf("an overwrite replaced the stored key (entry %p, map %p, first insert %p)",
			unsafe.StringData(ek), unsafe.StringData(mk), first)
	}

	// The caller reuses its bytes: the index still answers for the key.
	copy(slab1, "XXXXXXXXX")
	copy(slab2, "YYYYYYYYY")
	r := core.NewRequest(core.OpGet)
	r.Key = "alias/key"
	if err := h.Run(t, s, r); err != nil || len(r.Value) != 3*k.blockSize {
		t.Fatalf("get after the caller's bytes changed: %d bytes, %v", len(r.Value), err)
	}
	if k.Keys() != 1 {
		t.Fatalf("%d keys, want 1", k.Keys())
	}
}

// checkBlocks holds the allocator's invariant: the free blocks and the live
// entries' blocks are together exactly the data region, each block once.
func checkBlocks(t *testing.T, k *LabKVS, step int) {
	t.Helper()
	held := make([]bool, k.dataEnd-k.dataFirst)
	hold := func(b int64, by string) {
		if b < k.dataFirst || b >= k.dataEnd {
			t.Fatalf("op %d: %s holds block %d, outside the data region [%d, %d)", step, by, b, k.dataFirst, k.dataEnd)
		}
		if held[b-k.dataFirst] {
			t.Fatalf("op %d: block %d owned twice, the second time by %s", step, b, by)
		}
		held[b-k.dataFirst] = true
	}
	k.allocMu.Lock()
	for _, b := range k.free {
		hold(b, "the free list")
	}
	k.allocMu.Unlock()
	for _, ent := range k.records("") {
		for _, b := range ent.blockList() {
			hold(b, ent.key)
		}
	}
	if i := slices.Index(held, false); i >= 0 {
		t.Fatalf("op %d: block %d is neither free nor live", step, k.dataFirst+int64(i))
	}
}

// TestIndexMatchesMapModel drives LabKVS with a seeded mix of puts (empty,
// one-block and multi-block values), gets, deletes, has, key scans,
// pushdown scans and log replays, and checks every answer against a map.
// Keys reach the module as views of one reused buffer, scribbled over after
// every op, as a server's slab-backed keys would be if the index kept them.
// After every op the free list and the live blocks partition the data region.
func TestIndexMatchesMapModel(t *testing.T) {
	prog, err := pushdown.Default.Register("labkvs-model-first-byte-1", "filter where u8@0 == 1")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkAgainstMapModel(t, seed, prog.Ref) })
	}
}

func checkAgainstMapModel(t *testing.T, seed int64, progRef string) {
	h, s, k := kvHarness(t)
	rng := rand.New(rand.NewSource(seed))
	model := make(map[string][]byte)
	keyBuf := make([]byte, 4096)
	long := strings.Repeat("x", 3000) // a log record of one of these fills most of a block
	keyName := func() string {
		if g := rng.Intn(3); g < 2 {
			return fmt.Sprintf("k%d/%02d", g, rng.Intn(16))
		}
		return fmt.Sprintf("k2/%s/%02d", long, rng.Intn(16))
	}
	value := func() []byte {
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 0
		case 1, 2:
			n = 1 + rng.Intn(k.blockSize)
		default:
			n = k.blockSize + 1 + rng.Intn(2*k.blockSize)
		}
		v := make([]byte, n)
		rng.Read(v)
		if n > 0 {
			v[0] &= 1
		}
		return v
	}
	sortedKeys := func(prefix string) []string {
		var keys []string
		for key := range model {
			if strings.HasPrefix(key, prefix) {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		return keys
	}
	run := func(op core.Op, key string) *core.Request {
		r := core.NewRequest(op)
		r.Key = viewKey(keyBuf, key)
		return r
	}

	const ops = 2000
	for i := 0; i < ops; i++ {
		key := keyName()
		switch p := rng.Intn(100); {
		case p < 40:
			v := value()
			r := run(core.OpPut, key)
			r.Data, r.Size = v, len(v)
			if err := h.Run(t, s, r); err != nil {
				t.Fatalf("op %d put %q (%d bytes): %v", i, key, len(v), err)
			}
			model[key] = v
		case p < 60:
			r := run(core.OpGet, key)
			err := h.Run(t, s, r)
			want, ok := model[key]
			switch {
			case !ok && !errors.Is(err, ErrNoKey):
				t.Fatalf("op %d get of absent %q: %q, %v", i, key, r.Value, err)
			case ok && (err != nil || !bytes.Equal(r.Value, want)):
				t.Fatalf("op %d get %q: %d bytes, %v; model %d bytes", i, key, len(r.Value), err, len(want))
			}
			r.Release()
		case p < 70:
			err := h.Run(t, s, run(core.OpDel, key))
			if _, ok := model[key]; ok != (err == nil) {
				t.Fatalf("op %d del %q: %v, model has it: %v", i, key, err, ok)
			}
			delete(model, key)
		case p < 80:
			r := run(core.OpHas, key)
			h.Run(t, s, r)
			if _, ok := model[key]; ok != (r.Result == 1) {
				t.Fatalf("op %d has %q: %d, model has it: %v", i, key, r.Result, ok)
			}
		case p < 89:
			prefix := key[:rng.Intn(len(key)+1)]
			r := run(core.OpReaddir, "")
			r.Path = prefix
			if err := h.Run(t, s, r); err != nil {
				t.Fatal(err)
			}
			if want := sortedKeys(prefix); !slices.Equal(r.Names, want) {
				t.Fatalf("op %d scan %q: %v, model %v", i, prefix, r.Names, want)
			}
		case p < 98:
			prefix := key[:rng.Intn(len(key)+1)]
			r := run(core.OpScan, prefix)
			r.Prog = progRef
			if err := h.Run(t, s, r); err != nil {
				t.Fatalf("op %d pushdown scan %q: %v", i, prefix, err)
			}
			var want []string
			for _, key := range sortedKeys(prefix) {
				if v := model[key]; len(v) > 0 && v[0] == 1 {
					want = append(want, key)
				}
			}
			n := 0
			if err := pushdown.DecodeKV(r.Value, func(key string, val []byte) error {
				if n >= len(want) || key != want[n] || !bytes.Equal(val, model[key]) {
					return fmt.Errorf("match %d is %q (%d bytes), model's matches %d", n, key, len(val), len(want))
				}
				n++
				return nil
			}); err != nil || n != len(want) {
				t.Fatalf("op %d pushdown scan %q: %d matches, model %d: %v", i, prefix, n, len(want), err)
			}
			r.Release()
		default:
			// Everything so far reaches the log; the replay that the next op
			// runs rebuilds the index and the free list from it alone.
			if err := h.Run(t, s, run(core.OpFsync, "")); err != nil {
				t.Fatal(err)
			}
			k.StateRepair()
		}
		copy(keyBuf, "#################")
		if k.Keys() != len(model) && !k.needReplay {
			t.Fatalf("op %d: %d keys, model %d", i, k.Keys(), len(model))
		}
		if !k.needReplay {
			checkBlocks(t, k, i)
		}
	}
	var lap [4]byte // block 0 of the log starts with the lap it was written in
	h.Dev.ReadAt(lap[:], 0)
	if binary.LittleEndian.Uint32(lap[:]) < 2 {
		t.Fatal("the log never checkpointed")
	}
}
