package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"labstor/internal/codec"
	"labstor/internal/core"
	"labstor/internal/telemetry"
)

func TestRouteKey(t *testing.T) {
	cases := map[string]string{
		"kv::/bench":           "kv::/bench",
		"kv::/bench/deep/path": "kv::/bench",
		"fs::/tenants/a/x.dat": "fs::/tenants",
		"msg::/hot":            "msg::/hot",
		"noscheme":             "noscheme",
		"kv::":                 "kv::/",
	}
	for mount, want := range cases {
		if got := RouteKey(mount); got != want {
			t.Errorf("RouteKey(%q) = %q, want %q", mount, got, want)
		}
	}
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	backends := []string{"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"}
	r := NewRing(backends, 0)
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("kv::/ns-%d", i)
		b := r.Lookup(key)
		if b2 := r.Lookup(key); b2 != b {
			t.Fatalf("lookup not deterministic: %q vs %q", b, b2)
		}
		counts[b]++
	}
	for _, b := range backends {
		if counts[b] < 300 {
			t.Fatalf("backend %s owns only %d/3000 keys: %v", b, counts[b], counts)
		}
	}
}

func TestRingStabilityOnBackendRemoval(t *testing.T) {
	// Consistent hashing: dropping one of four backends must remap only the
	// removed backend's keys, never shuffle keys between survivors.
	all := []string{"a:1", "b:1", "c:1", "d:1"}
	before := NewRing(all, 0)
	after := NewRing(all[:3], 0)
	moved := 0
	const n = 4000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("kv::/ns-%d", i)
		was, is := before.Lookup(key), after.Lookup(key)
		if was == "d:1" {
			continue // its keys must move somewhere
		}
		if was != is {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved between surviving backends", moved)
	}
}

func TestRouterShardsAcrossBackends(t *testing.T) {
	// Two real runtimes, each serving every mount; the router must split
	// distinct namespace prefixes between them and round-trip responses
	// with correct id rewriting.
	_, _, addr1 := newTestServer(t, Config{})
	_, _, addr2 := newTestServer(t, Config{})

	reg := telemetry.NewRegistry()
	router := NewRouter([]string{addr1, addr2}, 0, reg)
	raddr, err := router.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	defer router.Close()

	c, err := Dial(raddr.String(), "t1")
	if err != nil {
		t.Fatalf("dial router: %v", err)
	}
	defer c.Close()

	// Both test mounts exist on both backends; whatever the ring picks, the
	// round trip must succeed and values must come back intact.
	const n = 64
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("rk-%d", i)
		val := []byte(fmt.Sprintf("routed-value-%d", i))
		res, err := c.Do(&ReqFrame{Op: core.OpPut, Mount: "kv::/bench", Key: key, Payload: val})
		if err != nil || res.Err() != nil {
			t.Fatalf("put via router: %v / %v", err, res.Err())
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("rk-%d", i)
		res, err := c.Do(&ReqFrame{Op: core.OpGet, Mount: "kv::/bench", Key: key})
		if err != nil || res.Err() != nil {
			t.Fatalf("get via router: %v / %v", err, res.Err())
		}
		want := fmt.Sprintf("routed-value-%d", i)
		if got := string(res.Resp.Value[:res.Resp.Result]); got != want {
			t.Fatalf("get %q = %q, want %q", key, got, want)
		}
	}
	// Message traffic hashes independently of kv traffic.
	results, err := c.Pipeline(func() []ReqFrame {
		rfs := make([]ReqFrame, 32)
		for i := range rfs {
			rfs[i] = ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"}
		}
		return rfs
	}())
	if err != nil {
		t.Fatalf("pipeline via router: %v", err)
	}
	for i, r := range results {
		if e := r.Err(); e != nil {
			t.Fatalf("msg %d via router: %v", i, e)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping via router: %v", err)
	}

	snap := reg.Snapshot()
	if snap.Counters["router.frames_forwarded"] < 2*n {
		t.Fatalf("frames_forwarded = %d, want >= %d", snap.Counters["router.frames_forwarded"], 2*n)
	}
	var backendsHit int
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "router.backend_ops;backend=") && v > 0 {
			backendsHit++
		}
	}
	// kv::/bench and msg::/hot are two distinct route keys over a 2-backend
	// ring; with 64 vnodes each they land on... wherever FNV puts them. At
	// least one backend serves traffic; both when the keys split.
	if backendsHit == 0 {
		t.Fatal("no backend_ops series recorded")
	}
}

func TestRouterTenantAttribution(t *testing.T) {
	// The router's upstream Hello presents "router", so per-request tenant
	// fields must carry the real tenant to backend admission.
	rt, _, addr := newTestServer(t, Config{
		Tenants: []TenantPolicy{{Name: "strict", RatePerSec: 1, Burst: 1}},
	})
	router := NewRouter([]string{addr}, 0, nil)
	raddr, err := router.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	defer router.Close()

	c, err := Dial(raddr.String(), "strict")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if res, err := c.Do(&ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"}); err != nil || res.Err() != nil {
		t.Fatalf("first op: %v / %v", err, res.Err())
	}
	res, err := c.Do(&ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"})
	if err != nil {
		t.Fatalf("second op transport: %v", err)
	}
	if !res.Busy || res.Reason != BusyRate {
		t.Fatalf("want BusyRate through router, got %+v", res)
	}
	snap := rt.Metrics().Snapshot()
	if snap.Counters["serve.tenant_admitted;tenant=strict"] == 0 {
		t.Fatal("backend did not attribute tenant across the router mux")
	}
}

func TestRouterShardLoss(t *testing.T) {
	// A dead backend yields explicit error responses, not hangs, and the
	// router connection stays usable for reachable shards.
	_, srv, addr := newTestServer(t, Config{})
	router := NewRouter([]string{addr}, 0, nil)
	raddr, err := router.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	defer router.Close()

	c, err := Dial(raddr.String(), "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if res, err := c.Do(&ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"}); err != nil || res.Err() != nil {
		t.Fatalf("warmup: %v / %v", err, res.Err())
	}

	srv.Close() // kill the only shard
	var sawErr bool
	for i := 0; i < 20; i++ {
		res, err := c.Do(&ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"})
		if err != nil {
			t.Fatalf("transport died instead of error resp: %v", err)
		}
		if e := res.Err(); e != nil && strings.Contains(e.Error(), "shard") {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("no shard-loss error surfaced")
	}
}

// newTestRouter starts a router in front of backends and closes it, within
// a bound, when the test ends.
func newTestRouter(t *testing.T, backends ...string) (*Router, string) {
	t.Helper()
	r := NewRouter(backends, 0, nil)
	addr, err := r.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	t.Cleanup(func() { closeWithin(t, r, 10*time.Second) })
	return r, addr.String()
}

func TestRouterStuckClientDoesNotStallOthers(t *testing.T) {
	// A client sends 4096 gets for a 16 KiB value through the router, 64 MiB
	// of answers, far past the socket buffers, and never reads one. Once its
	// socket is full, the upstream reader that writes its answers can go no
	// further. Another client of the same shard must still be answered: the
	// stuck one is cut off.
	_, _, addr := newTestServer(t, Config{Default: TenantPolicy{Inflight: 1 << 20}})
	put(t, addr, "big", bytes.Repeat([]byte{0x5A}, 16<<10))
	router, raddr := newTestRouter(t, addr)

	nc := rawDial(t, raddr)
	defer nc.Close()
	blast := make(chan struct{})
	go blastGets(nc, "big", 64, blast)

	// Stalled: the router has forwarded nothing for a while.
	forwarded := func() int64 { return router.Metrics().Snapshot().Counters["router.frames_forwarded"] }
	last := forwarded()
	for still, deadline := 0, time.Now().Add(20*time.Second); still < 6; {
		if time.Now().After(deadline) {
			t.Fatalf("the router never stalled: %d frames forwarded", last)
		}
		time.Sleep(50 * time.Millisecond)
		n := forwarded()
		if n == last && n > 0 {
			still++
		} else {
			still = 0
		}
		last = n
	}

	c, err := Dial(raddr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	answered := make(chan error, 1)
	go func() {
		res, err := c.Do(&ReqFrame{Op: core.OpGet, Mount: "kv::/bench", Key: "big"})
		if err == nil {
			err = res.Err()
		}
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatalf("get beside a stuck client: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a client that never reads stalls the other clients of its shard")
	}
	// Cut off: what the router wrote before it closed the connection reads
	// out, then the stream ends.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, nc); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the client that never reads was not cut off")
	}
	<-blast
}

func TestRouterCloseMidStream(t *testing.T) {
	// Clients pipeline gets through the router without pause, so their
	// read buffers hold frames when Close closes the upstreams. A frame read
	// after that must not dial an upstream that Close would then wait on.
	_, _, addr := newTestServer(t, Config{Default: TenantPolicy{Inflight: 1 << 20}})
	put(t, addr, "k", bytes.Repeat([]byte{0x11}, 1024))
	router, raddr := newTestRouter(t, addr)
	var drained sync.WaitGroup
	blasts := make([]chan struct{}, 4)
	for i := range blasts {
		nc := rawDial(t, raddr)
		defer nc.Close()
		blasts[i] = make(chan struct{})
		go blastGets(nc, "k", 1<<10, blasts[i])
		drained.Add(1)
		go func() {
			defer drained.Done()
			io.Copy(io.Discard, nc)
		}()
	}
	for deadline := time.Now().Add(20 * time.Second); router.Metrics().Snapshot().Counters["router.frames_forwarded"] < 4096; {
		if time.Now().After(deadline) {
			t.Fatal("the clients' gets never got through")
		}
		time.Sleep(10 * time.Millisecond)
	}
	closeWithin(t, router, 5*time.Second)
	for _, b := range blasts {
		<-b
	}
	drained.Wait()
}

func TestRouterForwardAllocations(t *testing.T) {
	// The shard answers every get with the same 4 KiB through a
	// frameReader and a frameGather, which allocate nothing in steady
	// state, so the process-wide count AllocsPerRun takes is the client's
	// and the router's: the client allocates the value of each get, and the
	// router must add nothing, for keys that change from get to get too.
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			nc, err := ln.Accept()
			if err != nil {
				return err
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			fr := newFrameReader(br, 0)
			if _, err := fr.hello(); err != nil {
				return err
			}
			if _, err := nc.Write(AppendHello(nil, &HelloFrame{Version: ProtoVersion})); err != nil {
				return err
			}
			value := make([]byte, 4096)
			var g frameGather
			for {
				if _, _, err := fr.next(); err != nil {
					return nil // the router hung up
				}
				p, err := fr.payload()
				if err != nil {
					return err
				}
				d := codec.NewDecoder(p)
				g.resp(&RespFrame{ID: d.Uvarint(), OK: true, Result: 4096, Value: value})
				if br.Buffered() == 0 {
					if err := g.writeTo(nc); err != nil {
						return err
					}
				}
			}
		}()
	}()
	router, raddr := newTestRouter(t, ln.Addr().String())
	c, err := Dial(raddr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	rf := ReqFrame{Op: core.OpGet, Mount: "kv::/bench"}
	i := 0
	get := func() {
		rf.ID, rf.Key, i = 0, keys[i%len(keys)], i+1
		res, err := c.Do(&rf)
		if err != nil || len(res.Resp.Value) != 4096 {
			t.Fatalf("get via router: %v / %+v", err, res.Resp)
		}
	}
	for range keys {
		get()
	}
	allocs := testing.AllocsPerRun(500, get)
	c.Close()
	closeWithin(t, router, 10*time.Second)
	if err := <-served; err != nil {
		t.Fatalf("shard: %v", err)
	}
	if allocs > 1 {
		t.Fatalf("a get through the router allocates %v times, want the 1 value the client allocates", allocs)
	}
}
