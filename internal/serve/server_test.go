package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	_ "labstor/internal/mods/allmods"
	"labstor/internal/mods/pushdown"
	"labstor/internal/runtime"
)

// newTestServer boots a runtime with an async KVS stack (kv::/bench) and a
// one-vertex message stack (msg::/hot), fronted by a serving endpoint on an
// ephemeral port.
func newTestServer(t *testing.T, cfg Config) (*runtime.Runtime, *Server, string) {
	t.Helper()
	rt := runtime.New(runtime.Options{MaxWorkers: 2, QueueDepth: 1024, Batch: 8})
	rt.AddDevice(device.New("pmem0", device.PMEM, 64<<20))
	if _, err := rt.Mount(core.NewStack("kv::/bench", core.Rules{}, []core.Vertex{
		{UUID: "genkvs", Type: "labstor.generickvs", Outputs: []string{"kvs"}},
		{UUID: "kvs", Type: "labstor.labkvs", Attrs: map[string]string{"device": "pmem0", "log_mb": "8"}, Outputs: []string{"dax"}},
		{UUID: "dax", Type: "labstor.dax", Attrs: map[string]string{"device": "pmem0"}},
	})); err != nil {
		t.Fatalf("mount kv stack: %v", err)
	}
	if _, err := rt.Mount(core.NewStack("msg::/hot", core.Rules{}, []core.Vertex{
		{UUID: "dum", Type: "labstor.dummy"},
	})); err != nil {
		t.Fatalf("mount msg stack: %v", err)
	}
	rt.Start()
	cfg.Addr = "127.0.0.1:0"
	s := New(rt, cfg)
	addr, err := s.ListenAndServe()
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		s.Close()
		rt.Shutdown()
	})
	return rt, s, addr.String()
}

func TestServeKVSEndToEnd(t *testing.T) {
	_, _, addr := newTestServer(t, Config{})
	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	payload := []byte("remote value via the wire")
	res, err := c.Do(&ReqFrame{Op: core.OpPut, Mount: "kv::/bench", Key: "k1", Payload: payload})
	if err != nil || res.Err() != nil {
		t.Fatalf("put: %v / %v", err, res.Err())
	}
	res, err = c.Do(&ReqFrame{Op: core.OpGet, Mount: "kv::/bench", Key: "k1"})
	if err != nil || res.Err() != nil {
		t.Fatalf("get: %v / %v", err, res.Err())
	}
	if !bytes.Equal(res.Resp.Value[:res.Resp.Result], payload) {
		t.Fatalf("get value %q, want %q", res.Resp.Value, payload)
	}
	res, err = c.Do(&ReqFrame{Op: core.OpHas, Mount: "kv::/bench", Key: "k1"})
	if err != nil || res.Err() != nil || res.Resp.Result != 1 {
		t.Fatalf("has: %v / %v / %d", err, res.Err(), res.Resp.Result)
	}
	res, err = c.Do(&ReqFrame{Op: core.OpDel, Mount: "kv::/bench", Key: "k1"})
	if err != nil || res.Err() != nil {
		t.Fatalf("del: %v / %v", err, res.Err())
	}
	res, err = c.Do(&ReqFrame{Op: core.OpGet, Mount: "kv::/bench", Key: "k1"})
	if err != nil {
		t.Fatalf("get after del transport: %v", err)
	}
	if res.Err() == nil {
		t.Fatal("get after del should fail")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestServePipelineBatches(t *testing.T) {
	rt, _, addr := newTestServer(t, Config{Batch: 16})
	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const n = 200
	puts := make([]ReqFrame, n)
	for i := range puts {
		puts[i] = ReqFrame{
			Op: core.OpPut, Mount: "kv::/bench",
			Key:     fmt.Sprintf("key-%03d", i),
			Payload: []byte(fmt.Sprintf("value-%03d", i)),
		}
	}
	results, err := c.Pipeline(puts)
	if err != nil {
		t.Fatalf("pipeline puts: %v", err)
	}
	for i, r := range results {
		if e := r.Err(); e != nil {
			t.Fatalf("put %d: %v", i, e)
		}
	}

	gets := make([]ReqFrame, n)
	for i := range gets {
		gets[i] = ReqFrame{Op: core.OpGet, Mount: "kv::/bench", Key: fmt.Sprintf("key-%03d", i)}
	}
	results, err = c.Pipeline(gets)
	if err != nil {
		t.Fatalf("pipeline gets: %v", err)
	}
	for i, r := range results {
		if e := r.Err(); e != nil {
			t.Fatalf("get %d: %v", i, e)
		}
		want := fmt.Sprintf("value-%03d", i)
		if got := string(r.Resp.Value[:r.Resp.Result]); got != want {
			t.Fatalf("get %d = %q, want %q", i, got, want)
		}
	}

	snap := rt.Metrics().Snapshot()
	if snap.Counters["serve.frames_in"] < 2*n {
		t.Fatalf("frames_in = %d, want >= %d", snap.Counters["serve.frames_in"], 2*n)
	}
	bs, ok := snap.Histograms["serve.batch_size"]
	if !ok || bs.Count == 0 {
		t.Fatal("serve.batch_size histogram empty")
	}
	if bs.Max < 2 {
		t.Fatalf("batch coalescing never exceeded 1 (max=%v)", bs.Max)
	}
}

func TestServeTenantRateLimitIsolation(t *testing.T) {
	_, _, addr := newTestServer(t, Config{
		Tenants: []TenantPolicy{{Name: "capped", RatePerSec: 200, Burst: 10}},
	})

	run := func(tenant string, d time.Duration) (ok, busy int64) {
		c, err := Dial(addr, tenant)
		if err != nil {
			t.Fatalf("dial %s: %v", tenant, err)
		}
		defer c.Close()
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			res, err := c.Do(&ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"})
			if err != nil {
				t.Fatalf("%s do: %v", tenant, err)
			}
			if res.Busy {
				busy++
				time.Sleep(time.Duration(res.RetryNs))
				continue
			}
			if e := res.Err(); e != nil {
				t.Fatalf("%s req: %v", tenant, e)
			}
			ok++
		}
		return ok, busy
	}

	var wg sync.WaitGroup
	var cappedOK, cappedBusy, openOK int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		ok, busy := run("capped", 500*time.Millisecond)
		atomic.StoreInt64(&cappedOK, ok)
		atomic.StoreInt64(&cappedBusy, busy)
	}()
	go func() {
		defer wg.Done()
		ok, _ := run("open", 500*time.Millisecond)
		atomic.StoreInt64(&openOK, ok)
	}()
	wg.Wait()

	// The capped tenant admits at most burst + rate*window (plus slack for
	// timer skew); the open tenant must sail far past that.
	if cappedOK > 10+200/2+60 {
		t.Fatalf("capped tenant admitted %d ops in 500ms at 200/s", cappedOK)
	}
	if cappedBusy == 0 {
		t.Fatal("capped tenant never saw a BUSY frame")
	}
	if openOK < 4*cappedOK {
		t.Fatalf("open tenant (%d ops) not clearly ahead of capped (%d)", openOK, cappedOK)
	}
}

func TestServeInflightBackpressure(t *testing.T) {
	rt, _, addr := newTestServer(t, Config{Default: TenantPolicy{Inflight: 4}})
	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Blast a window far over the inflight cap in one flush. BUSY frames
	// (explicit backpressure) must come back instead of silent queueing,
	// while admitted requests still succeed.
	reqs := make([]ReqFrame, 64)
	for i := range reqs {
		reqs[i] = ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"}
	}
	results, err := c.Pipeline(reqs)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	var ok, busy int
	for _, r := range results {
		switch {
		case r.Busy && r.Reason == BusyInflight:
			busy++
		case r.Err() == nil:
			ok++
		default:
			t.Fatalf("unexpected result: %+v", r)
		}
	}
	if busy == 0 {
		t.Fatal("no BUSY frames under a 16x inflight overload")
	}
	if ok == 0 {
		t.Fatal("nothing admitted under overload")
	}
	snap := rt.Metrics().Snapshot()
	if snap.Counters["serve.busy"] != int64(busy) {
		t.Fatalf("serve.busy = %d, want %d", snap.Counters["serve.busy"], busy)
	}
	if snap.Counters["serve.busy_inflight"] != int64(busy) {
		t.Fatalf("serve.busy_inflight = %d, want %d", snap.Counters["serve.busy_inflight"], busy)
	}
}

func TestServeUnknownMount(t *testing.T) {
	_, _, addr := newTestServer(t, Config{})
	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	res, err := c.Do(&ReqFrame{Op: core.OpGet, Mount: "kv::/nowhere", Key: "k"})
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	if res.Err() == nil || !strings.Contains(res.Err().Error(), "no stack serving") {
		t.Fatalf("want no-stack error, got %v", res.Err())
	}
	// The connection survives a routing miss.
	if res, err := c.Do(&ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"}); err != nil || res.Err() != nil {
		t.Fatalf("follow-up after miss: %v / %v", err, res.Err())
	}
}

func TestServeProtocolErrorClosesConn(t *testing.T) {
	rt, _, addr := newTestServer(t, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write(AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: "x"})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	ackBuf := make([]byte, 64)
	if _, err := nc.Read(ackBuf); err != nil {
		t.Fatalf("ack: %v", err)
	}
	if _, err := nc.Write([]byte("garbage that is not a frame")); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	tmp := make([]byte, 64)
	for {
		if _, err := nc.Read(tmp); err != nil {
			break // server hung up — what we want
		}
	}
	snap := rt.Metrics().Snapshot()
	if snap.Counters["serve.proto_errors"] == 0 {
		t.Fatal("proto error not counted")
	}
}

func TestServeManyConnections(t *testing.T) {
	_, _, addr := newTestServer(t, Config{})
	const conns = 64
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, fmt.Sprintf("t%d", i%8))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			reqs := make([]ReqFrame, 16)
			for j := range reqs {
				reqs[j] = ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"}
			}
			for round := 0; round < 4; round++ {
				results, err := c.Pipeline(reqs)
				if err != nil {
					errs <- err
					return
				}
				for _, r := range results {
					if e := r.Err(); e != nil {
						errs <- e
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("connection failed: %v", err)
	}
}

func TestServePushdownScanAndPolicy(t *testing.T) {
	// Programs live in the process-wide Default registry — that's where
	// the executing mods (labkvs/labfs) resolve refs; the serve policy
	// only decides who may run them.
	prog, err := pushdown.Default.Register("tag7", "count where u32@0 == 7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pushdown.Default.Register("wire-sel1", "filter where u32@0 < 1"); err != nil {
		t.Fatal(err)
	}
	pol := pushdown.NewPolicy(nil, []string{"tag7", "wire-sel1"}, pushdown.Caps{MaxBytes: 1 << 20})
	pol.SetTenant("locked", pushdown.TenantRule{}) // empty allow = deny all
	pol.SetTenant("tiny", pushdown.TenantRule{Allow: []string{"*"}, Caps: pushdown.Caps{MaxBytes: 4096}})
	rt, _, addr := newTestServer(t, Config{
		Pushdown: pol,
		Tenants:  []TenantPolicy{{Name: "locked", RatePerSec: 1000, Burst: 100}},
	})

	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	val := make([]byte, 64)
	val[0] = 7
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("p/%d", i)
		if i >= 3 {
			val[0] = 9 // non-matching tag
		}
		if res, err := c.Do(&ReqFrame{Op: core.OpPut, Mount: "kv::/bench", Key: key, Payload: val}); err != nil || res.Err() != nil {
			t.Fatalf("put: %v / %v", err, res.Err())
		}
	}

	// Scan by name over the wire; the server rewrites to the canonical ref.
	res, err := c.Do(&ReqFrame{Op: core.OpScan, Mount: "kv::/bench", Key: "p/", Prog: "tag7"})
	if err != nil || res.Err() != nil {
		t.Fatalf("scan: %v / %v", err, res.Err())
	}
	if res.Resp.Result != 3 {
		t.Fatalf("pushdown count over wire = %d, want 3", res.Resp.Result)
	}

	// Unknown program is rejected before touching the runtime.
	if res, _ := c.Do(&ReqFrame{Op: core.OpScan, Mount: "kv::/bench", Key: "p/", Prog: "nope"}); res.Err() == nil {
		t.Fatal("unknown program admitted")
	}

	// A denied tenant's scan is rejected by the per-tenant allow-list.
	cl, err := Dial(addr, "locked")
	if err != nil {
		t.Fatalf("dial locked: %v", err)
	}
	defer cl.Close()
	if res, _ := cl.Do(&ReqFrame{Op: core.OpScan, Mount: "kv::/bench", Key: "p/", Prog: prog.Ref}); res.Err() == nil {
		t.Fatal("locked tenant's program admitted")
	}

	// Plain ops from the locked tenant still flow.
	if res, err := cl.Do(&ReqFrame{Op: core.OpGet, Mount: "kv::/bench", Key: "p/0"}); err != nil || res.Err() != nil {
		t.Fatalf("locked tenant get: %v / %v", err, res.Err())
	}

	// Bytes on the wire: a filter matching 1 record in 100 must send at
	// least 3x fewer bytes than fetching every value to filter client-side.
	bytesOut := rt.Metrics().Counter("serve.bytes_out")
	rec := make([]byte, 256)
	for i := 0; i < 100; i++ {
		binary.LittleEndian.PutUint32(rec, uint32(i))
		key := fmt.Sprintf("q/%03d", i)
		if res, err := c.Do(&ReqFrame{Op: core.OpPut, Mount: "kv::/bench", Key: key, Payload: rec}); err != nil || res.Err() != nil {
			t.Fatalf("put: %v / %v", err, res.Err())
		}
	}
	b0 := bytesOut.Value()
	for i := 0; i < 100; i++ {
		if res, err := c.Do(&ReqFrame{Op: core.OpGet, Mount: "kv::/bench", Key: fmt.Sprintf("q/%03d", i)}); err != nil || res.Err() != nil {
			t.Fatalf("get: %v / %v", err, res.Err())
		}
	}
	fetched := bytesOut.Value() - b0
	b0 = bytesOut.Value()
	res, err = c.Do(&ReqFrame{Op: core.OpScan, Mount: "kv::/bench", Key: "q/", Prog: "wire-sel1"})
	if err != nil || res.Err() != nil {
		t.Fatalf("filter scan: %v / %v", err, res.Err())
	}
	scanned := bytesOut.Value() - b0
	matches := 0
	if err := pushdown.DecodeKV(res.Resp.Value, func(string, []byte) error { matches++; return nil }); err != nil {
		t.Fatal(err)
	}
	if matches != 1 || 3*scanned > fetched {
		t.Fatalf("1%% filter sent %d records in %d wire bytes; fetching all sends %d, want 1 record and >= 3x fewer", matches, scanned, fetched)
	}

	// A tenant's byte cap, far below the 25 KiB the scan touches, trips over
	// the wire as an explicit budget error.
	ct, err := Dial(addr, "tiny")
	if err != nil {
		t.Fatalf("dial tiny: %v", err)
	}
	defer ct.Close()
	if res, _ := ct.Do(&ReqFrame{Op: core.OpScan, Mount: "kv::/bench", Key: "q/", Prog: "wire-sel1"}); res.Err() == nil || !strings.Contains(res.Err().Error(), "budget") {
		t.Fatalf("capped tenant's scan: %v, want a budget error", res.Err())
	}
}

func TestServePushdownDisabledRejects(t *testing.T) {
	_, _, addr := newTestServer(t, Config{}) // no Pushdown policy
	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	res, err := c.Do(&ReqFrame{Op: core.OpScan, Mount: "kv::/bench", Key: "", Prog: "anything"})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if res.Err() == nil || !strings.Contains(res.Err().Error(), "not enabled") {
		t.Fatalf("program on disabled server: %v", res.Err())
	}
}
