package experiments

import (
	"bytes"
	"fmt"
	gort "runtime"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/runtime"
	"labstor/internal/serve"
	"labstor/internal/telemetry"
)

// TestServeCopyContract is TestKVSCopyContract over the wire: the same
// kvs -> lru -> noop -> kernel_driver stack behind a serve.Server. The
// server lands a put's payload once, in a stack-owned arena buffer, and the
// cache keeps that buffer as its page by reference, so by CopySite name:
//
//   - n 4 KiB puts make no lru.write_insert and no device.dma_write: the
//     payload buffer is the page and the device's block by reference; the
//     only copy is one labkvs.log_stage per log block the puts fill, whose
//     image the device keeps by reference too;
//   - n cached gets make no copy at all: the server writes the page itself
//     to the socket;
//   - after the putting connection has closed and the server has dropped
//     its references to the payloads, every value still reads back
//     byte-exact (under -tags labstor_debug a payload recycled while the
//     cache holds it would read back poisoned).
func TestServeCopyContract(t *testing.T) {
	const n, valSize = 128, 4096
	rt := runtime.New(runtime.Options{MaxWorkers: 2, QueueDepth: 1024})
	rt.AddDevice(device.New("dev0", device.NVMe, 128<<20))
	defer rt.Shutdown()
	if _, err := MountLab(rt, "kv::/sc", "dev0", LabCfg{KV: true, Cache: true, Sched: "noop", Driver: "kernel_driver"}); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	srv := serve.New(rt, serve.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	key := func(i int) string { return fmt.Sprintf("s/%03d", i) }
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5, 0x5A}, valSize/4) }
	do := func(c *serve.Conn, rf *serve.ReqFrame) serve.Result {
		res, err := c.Do(rf)
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			t.Fatalf("%s %s: %v", rf.Op, rf.Key, err)
		}
		return res
	}

	g := gort.NumGoroutine()
	c, err := serve.Dial(addr.String(), "t1")
	if err != nil {
		t.Fatal(err)
	}
	before := telemetry.CopySiteStats()
	for i := 0; i < n; i++ {
		do(c, &serve.ReqFrame{Op: core.OpPut, Mount: "kv::/sc", Key: key(i), Payload: value(i)})
	}
	puts := copyDeltas(before)
	logBlocks := puts["labkvs.log_stage"]
	if logBlocks > n/16 {
		t.Errorf("%d puts filled %d log blocks, want at most %d", n, logBlocks, n/16)
	}
	if puts["device.dma_write"] != 0 {
		t.Errorf("%d puts: device.dma_write = %d, want 0 (payloads and log blocks go down by reference)", n, puts["device.dma_write"])
	}
	delete(puts, "device.dma_write")
	delete(puts, "labkvs.log_stage")
	if len(puts) != 0 {
		t.Errorf("puts over the wire copied at sites outside the contract: %v (want no lru.write_insert)", puts)
	}

	// The server answers a put before it releases the payload; its
	// connection goroutines are gone only once every release is done.
	c.Close()
	for deadline := time.Now().Add(5 * time.Second); gort.NumGoroutine() > g; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the putting connection closed, %d before it", gort.NumGoroutine(), g)
		}
	}

	c, err = serve.Dial(addr.String(), "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before = telemetry.CopySiteStats()
	for i := 0; i < n; i++ {
		res := do(c, &serve.ReqFrame{Op: core.OpGet, Mount: "kv::/sc", Key: key(i)})
		if !bytes.Equal(res.Resp.Value, value(i)) {
			t.Fatalf("get %s after the putting connection closed: value differs from the put", key(i))
		}
	}
	if gets := copyDeltas(before); len(gets) != 0 {
		t.Errorf("%d cached gets over the wire copied %v, want none", n, gets)
	}
}
