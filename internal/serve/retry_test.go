package serve

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/runtime"
)

// busyServer is a wire-protocol stub that answers the handshake, rejects
// the first `rejections` requests with BUSY (carrying retryNs as the
// hint), and serves OK responses after that. It makes the DoRetry backoff
// path deterministic — no racing against a real admission controller.
func busyServer(t *testing.T, rejections int, retryNs int64) (addr string, attempts *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	attempts = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				fr := newFrameReader(bufio.NewReader(conn), DefaultMaxPayload)
				if _, err := fr.hello(); err != nil {
					return
				}
				conn.Write(AppendHello(nil, &HelloFrame{Version: ProtoVersion}))
				var rf ReqFrame
				for {
					typ, _, err := fr.next()
					if err != nil {
						return
					}
					payload, err := fr.payload()
					if err != nil {
						return
					}
					if typ != FrameReq {
						continue
					}
					if err := DecodeReq(payload, &rf); err != nil {
						return
					}
					n := attempts.Add(1)
					if n <= int64(rejections) {
						conn.Write(AppendBusy(nil, &BusyFrame{ID: rf.ID, Reason: BusyInflight, RetryNs: retryNs}))
						continue
					}
					conn.Write(AppendResp(nil, &RespFrame{ID: rf.ID, OK: true, Result: int64(n)}))
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), attempts
}

func TestDoRetryBusyBackoff(t *testing.T) {
	addr, attempts := busyServer(t, 2, int64(100*time.Microsecond))
	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	start := time.Now()
	res, err := c.DoRetry(&ReqFrame{Op: core.OpMessage, Mount: "msg::/x"}, 5)
	if err != nil {
		t.Fatalf("DoRetry: %v", err)
	}
	if res.Busy || !res.Resp.OK {
		t.Fatalf("DoRetry did not recover from BUSY: %+v", res)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 rejections + success)", got)
	}
	// Two backoffs at the 100us hint (floored to 50us) must have elapsed;
	// generous upper bound guards against the 10ms clamp misfiring.
	if el := time.Since(start); el < 200*time.Microsecond || el > 5*time.Second {
		t.Fatalf("backoff timing off: %v", el)
	}
}

func TestDoRetryExhaustsTriesStillBusy(t *testing.T) {
	addr, attempts := busyServer(t, 1<<30, int64(50*time.Microsecond))
	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	res, err := c.DoRetry(&ReqFrame{Op: core.OpMessage, Mount: "msg::/x"}, 3)
	if err != nil {
		t.Fatalf("DoRetry: %v", err)
	}
	if !res.Busy {
		t.Fatalf("expected final result still busy: %+v", res)
	}
	if res.Err() == nil || !strings.Contains(res.Err().Error(), "busy") {
		t.Fatalf("busy result error: %v", res.Err())
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want exactly tries=3", got)
	}
}

func TestDoRetryFreshIDsPerAttempt(t *testing.T) {
	addr, _ := busyServer(t, 1, int64(50*time.Microsecond))
	c, err := Dial(addr, "t1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	rf := &ReqFrame{Op: core.OpMessage, Mount: "msg::/x"}
	if _, err := c.DoRetry(rf, 3); err != nil {
		t.Fatalf("DoRetry: %v", err)
	}
	// The frame carries the LAST attempt's id; the first rejected attempt
	// consumed an earlier one, so at least two ids were burned.
	if rf.ID < 2 {
		t.Fatalf("retry reused request id: final id %d", rf.ID)
	}
}

// msgServer boots a minimal runtime+server (one dummy message stack) on
// addr — "127.0.0.1:0" for ephemeral, or a fixed address to simulate a
// shard coming back after a crash.
func msgServer(t *testing.T, addr string) (string, func(), error) {
	t.Helper()
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 256, Batch: 4})
	rt.AddDevice(device.New("pmem0", device.PMEM, 16<<20))
	if _, err := rt.Mount(core.NewStack("msg::/hot", core.Rules{}, []core.Vertex{
		{UUID: "dum", Type: "labstor.dummy"},
	})); err != nil {
		t.Fatalf("mount msg stack: %v", err)
	}
	rt.Start()
	s := New(rt, Config{Addr: addr})
	bound, err := s.ListenAndServe()
	if err != nil {
		rt.Shutdown()
		return "", nil, err
	}
	return bound.String(), func() {
		s.Close()
		rt.Shutdown()
	}, nil
}

func TestRouterDeadShardRedial(t *testing.T) {
	// The router drops a dead upstream and re-dials on the next request:
	// after the shard restarts on the same address, DoRetry-driven traffic
	// must flow again over the SAME client connection.
	shardAddr, stop, err := msgServer(t, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("shard listen: %v", err)
	}
	router := NewRouter([]string{shardAddr}, 0, nil)
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

	rf := func() *ReqFrame { return &ReqFrame{Op: core.OpMessage, Mount: "msg::/hot"} }
	if res, err := c.DoRetry(rf(), 3); err != nil || res.Err() != nil {
		t.Fatalf("warmup: %v / %v", err, res.Err())
	}

	stop() // shard dies
	sawShardErr := false
	for i := 0; i < 50 && !sawShardErr; i++ {
		res, err := c.DoRetry(rf(), 2)
		if err != nil {
			t.Fatalf("client transport died: %v", err)
		}
		if e := res.Err(); e != nil && strings.Contains(e.Error(), "shard") {
			sawShardErr = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawShardErr {
		t.Fatal("no shard-loss error surfaced after backend death")
	}

	// Shard restarts on the same address; the router's next forward
	// re-dials the upstream and requests succeed again.
	var stop2 func()
	for i := 0; i < 20 && stop2 == nil; i++ {
		if _, s2, err := msgServer(t, shardAddr); err == nil {
			stop2 = s2
		} else {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if stop2 == nil {
		t.Skip("could not rebind shard address (port still in TIME_WAIT)")
	}
	defer stop2()

	recovered := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		res, err := c.DoRetry(rf(), 3)
		if err != nil {
			t.Fatalf("client transport died during recovery: %v", err)
		}
		if res.Err() == nil {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("router never re-dialed the restarted shard")
	}
}
