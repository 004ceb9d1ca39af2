package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/runtime"
)

// TestServeRemountOnLiveConnection: a connection resolves its mount on every
// frame, so a stack unmounted and mounted again at the same path is reached
// by a connection that was open throughout, and between the two the mount is
// a routing miss rather than the old stack.
func TestServeRemountOnLiveConnection(t *testing.T) {
	rt, _, addr := newTestServer(t, Config{})
	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	msg := func() error {
		res, err := c.Do(&ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"})
		if err != nil {
			t.Fatalf("transport: %v", err)
		}
		return res.Err()
	}
	if err := msg(); err != nil {
		t.Fatalf("before unmount: %v", err)
	}
	if err := rt.Unmount("msg::/hot"); err != nil {
		t.Fatal(err)
	}
	if err := msg(); err == nil || !strings.Contains(err.Error(), "no stack serving") {
		t.Fatalf("after unmount: %v, want a no-stack error", err)
	}
	if _, err := rt.Mount(core.NewStack("msg::/hot", core.Rules{}, []core.Vertex{
		{UUID: "dum2", Type: "labstor.dummy"},
	})); err != nil {
		t.Fatalf("remount: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := msg(); err != nil {
			t.Fatalf("after remount, request %d: %v", i, err)
		}
	}
}

// TestKeySlabRollover: a string the slab made reads the same after the slab
// has been replaced several times over, because a full slab is never written
// again.
func TestKeySlabRollover(t *testing.T) {
	var s keySlab
	first := s.str([]byte("first-key"), "")
	firstSlab := unsafe.SliceData(s.b)
	var kept []string
	field := make([]byte, 100)
	for i := 0; i < 5*keySlabSize/len(field); i++ {
		copy(field, fmt.Sprintf("key-%06d-", i))
		kept = append(kept, s.str(field, ""))
	}
	if unsafe.SliceData(s.b) == firstSlab {
		t.Fatal("five slabs' worth of keys did not roll the slab over")
	}
	if first != "first-key" {
		t.Fatalf("first key reads %q after rollovers", first)
	}
	for i, k := range kept {
		if want := fmt.Sprintf("key-%06d-", i); !strings.HasPrefix(k, want) || len(k) != len(field) {
			t.Fatalf("key %d reads %q, want prefix %q", i, k, want)
		}
	}
}

// TestKeySlabFallbacks: an equal field is the last string itself, an empty
// one and one longer than a quarter slab take no slab space, and a nil slab
// allocates as codec.Decoder.Str does.
func TestKeySlabFallbacks(t *testing.T) {
	var s keySlab
	last := s.str([]byte("mount"), "")
	used := len(s.b)
	if got := s.str([]byte("mount"), last); unsafe.StringData(got) != unsafe.StringData(last) {
		t.Fatal("an equal field was copied again, not returned as last")
	}
	if got := s.str(nil, last); got != "" {
		t.Fatalf("empty field gives %q", got)
	}
	long := bytes.Repeat([]byte{'L'}, keySlabSize/4+1)
	if got := s.str(long, ""); got != string(long) {
		t.Fatal("long field reads back different")
	}
	if len(s.b) != used {
		t.Fatalf("slab grew by %d bytes for fields it should not hold", len(s.b)-used)
	}
	var none *keySlab
	b := []byte("key")
	got := none.str(b, "")
	b[0] = 'X'
	if got != "key" {
		t.Fatalf("nil slab's string changed with its input: %q", got)
	}
}

// TestServeKVWindowAllocations: a real server over LabKVS answering
// pipelined windows of 16 requests — gets and one-block puts alternating,
// keys that change from request to request, and a mount that alternates
// between two stacks — adds no allocation of its own. The bound is
// TestPipelineWindowAllocations': what the client allocates for a window of
// 16 gets (16 values and the result slice); here 8 of the 16 are gets.
func TestServeKVWindowAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 1024, Batch: 16})
	mounts := []string{"kv::/a", "kv::/b"}
	for i, m := range mounts {
		dev := fmt.Sprintf("pmem%d", i)
		rt.AddDevice(device.New(dev, device.PMEM, 64<<20))
		if _, err := rt.Mount(core.NewStack(m, core.Rules{}, []core.Vertex{
			{UUID: "kvs" + dev, Type: "labstor.labkvs", Attrs: map[string]string{"device": dev, "log_mb": "8"}, Outputs: []string{"dax" + dev}},
			{UUID: "dax" + dev, Type: "labstor.dax", Attrs: map[string]string{"device": dev}},
		})); err != nil {
			t.Fatalf("mount %s: %v", m, err)
		}
	}
	rt.Start()
	defer rt.Shutdown()
	s := New(rt, Config{Addr: "127.0.0.1:0", Batch: 16})
	addr, err := s.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String(), "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("user/%08d", i)
	}
	value := bytes.Repeat([]byte{'v'}, 1000)
	rfs := make([]ReqFrame, 16)
	window := 0
	run := func() {
		for i := range rfs {
			// A put, then a get of what it put.
			n := window*len(rfs)/2 + i/2
			key, mount := keys[n%len(keys)], mounts[n%2]
			if i%2 == 0 {
				rfs[i] = ReqFrame{Op: core.OpPut, Mount: mount, Key: key, Payload: value}
			} else {
				rfs[i] = ReqFrame{Op: core.OpGet, Mount: mount, Key: key}
			}
		}
		window++
		results, err := c.Pipeline(rfs)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		for i := range results {
			if err := results[i].Err(); err != nil {
				t.Fatalf("window %d request %d: %v", window, i, err)
			}
			if i%2 == 1 && !bytes.Equal(results[i].Resp.Value, value) {
				t.Fatalf("window %d get %d returned %d other bytes", window, i, len(results[i].Resp.Value))
			}
		}
	}
	// Warm up: every key is put once (a new key is cloned into the index),
	// and the pools, arenas and slabs fill.
	for i := 0; i < 3*len(keys)/(len(rfs)/2); i++ {
		run()
	}
	allocs := testing.AllocsPerRun(200, run)
	t.Logf("allocs per window: %v", allocs)
	if allocs > 17 {
		t.Fatalf("a window of 8 gets and 8 puts allocates %v times, want at most 17", allocs)
	}
}
