package experiments

import (
	"encoding/binary"
	"fmt"
	"testing"

	"labstor"
	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/mods/pushdown"
	"labstor/internal/runtime"
	"labstor/internal/telemetry"
)

// TestPushdownScanCopyContract is the copies/op contract for computation
// pushdown, measured from the same CopySite audit the zerocopy suite uses:
//
//   - a CACHED aggregate scan makes 0 payload copies — every record block
//     is a retained in-place cache view, and an aggregate emits nothing;
//   - an UNCACHED aggregate scan makes exactly 1 payload copy per record
//     block — the DMA fill (device.dma_read) — and nothing else.
//
// Any memcpy a refactor sneaks onto the scan path (staging, assembly,
// defensive copies) breaks this test by name.
func TestPushdownScanCopyContract(t *testing.T) {
	prog, err := pushdown.Default.Register("contract-count", "count where u32@0 == 1")
	if err != nil {
		t.Fatal(err)
	}
	const nRecs = 32
	const valSize = 4096 // exactly one block: uncached = 1 DMA per record

	run := func(cached bool) map[string]int64 {
		rt := runtime.New(runtime.Options{MaxWorkers: 2, QueueDepth: 1024})
		rt.AddDevice(device.New("dev0", device.NVMe, 128<<20))
		defer rt.Shutdown()
		mount := fmt.Sprintf("kv::/cc%v", cached)
		stack, err := MountLab(rt, mount, "dev0", LabCfg{KV: true, Cache: cached, Driver: "kernel_driver"})
		if err != nil {
			t.Fatal(err)
		}
		rt.Start()
		cli := rt.Connect(ipc.Credentials{PID: 1, UID: 0, GID: 0})

		val := make([]byte, valSize)
		binary.LittleEndian.PutUint32(val, 1)
		for i := 0; i < nRecs; i++ {
			req := core.AcquireRequest(core.OpPut)
			req.Key = fmt.Sprintf("c/%02d", i)
			req.Size = valSize
			req.Data = val
			err := cli.SubmitStack(stack, req)
			reqErr := req.Err
			req.Release()
			if err != nil || reqErr != nil {
				t.Fatalf("put: %v / %v", err, reqErr)
			}
		}

		before := telemetry.CopySiteStats()
		req := core.AcquireRequest(core.OpScan)
		req.Key = "c/"
		req.Prog = prog.Ref
		err = cli.SubmitStack(stack, req)
		reqErr := req.Err
		result := req.Result
		req.Release()
		if err != nil || reqErr != nil {
			t.Fatalf("scan: %v / %v", err, reqErr)
		}
		if result != nRecs {
			t.Fatalf("scan count = %d, want %d", result, nRecs)
		}
		return copyDeltas(before)
	}

	// Cached: the LRU holds handle-backed pages from the write inserts and
	// hands out retained views — the scan itself copies nothing.
	if deltas := run(true); len(deltas) != 0 {
		t.Errorf("cached pushdown scan made payload copies: %v (want none)", deltas)
	}

	// Uncached: each record block is DMA-filled into a stack-owned handle —
	// exactly one copy per record, all at device.dma_read.
	deltas := run(false)
	if deltas["device.dma_read"] != nRecs {
		t.Errorf("uncached scan dma_read = %d, want %d", deltas["device.dma_read"], nRecs)
	}
	delete(deltas, "device.dma_read")
	if len(deltas) != 0 {
		t.Errorf("uncached scan made extra copies beyond the DMA fill: %v", deltas)
	}
}

// copyDeltas returns, by CopySite name, the copies made since before; sites
// that did not move are omitted.
func copyDeltas(before []telemetry.CopySiteStat) map[string]int64 {
	at := make(map[string]int64, len(before))
	for _, s := range before {
		at[s.Site] = s.Count
	}
	deltas := map[string]int64{}
	for _, s := range telemetry.CopySiteStats() {
		if d := s.Count - at[s.Site]; d != 0 {
			deltas[s.Site] = d
		}
	}
	return deltas
}

// TestKVSCopyContract is the copies/op contract of plain KVS traffic over a
// kvs -> lru -> noop -> kernel_driver stack, by CopySite name:
//
//   - N 4 KiB puts make one lru.write_insert and one device.dma_write each,
//     and on top only the metadata log: one labkvs.log_stage per filled log
//     block, whose block write is one more DMA. The log is written DirectIO,
//     so the cache takes no copy of it;
//   - N cached gets through runtime.Client, of 4 KiB values and of values
//     shorter than a block, make no copy: each value is a retained view of
//     its cache page;
//   - the same gets through the labstor facade make exactly one copy each,
//     at labstor.value_copy_out: the caller may write its result, and the
//     page is still the cache's.
//
// Any other site moving fails by name.
func TestKVSCopyContract(t *testing.T) {
	const n, valSize, shortSize = 128, 4096, 100
	p := labstor.NewPlatform(labstor.Config{Workers: 2, QueueDepth: 1024})
	defer p.Close()
	p.AddDevice("dev0", labstor.NVMe, 128<<20)
	rt := p.Runtime()
	stack, err := MountLab(rt, "kv::/kc", "dev0", LabCfg{KV: true, Cache: true, Sched: "noop", Driver: "kernel_driver"})
	if err != nil {
		t.Fatal(err)
	}
	cli := rt.Connect(ipc.Credentials{PID: 1, UID: 0, GID: 0})
	sess := p.Connect()
	defer sess.Close()
	kv := sess.KV("kv::/kc")
	val := make([]byte, valSize)
	key := func(size, i int) string { return fmt.Sprintf("k%d/%03d", size, i) }
	call := func(op core.Op, size, i int) {
		req := core.AcquireRequest(op)
		req.Key = key(size, i)
		if op == core.OpPut {
			req.Size, req.Data = size, val[:size]
		}
		err := cli.SubmitStack(stack, req)
		reqErr, result := req.Err, req.Result
		req.Release()
		if err != nil || reqErr != nil || result != int64(size) {
			t.Fatalf("%s %s: %v / %v, result %d", op, key(size, i), err, reqErr, result)
		}
	}
	pass := func(each func(i int)) map[string]int64 {
		before := telemetry.CopySiteStats()
		for i := 0; i < n; i++ {
			each(i)
		}
		return copyDeltas(before)
	}

	puts := pass(func(i int) { call(core.OpPut, valSize, i) })
	logBlocks := puts["labkvs.log_stage"]
	if logBlocks > n/16 {
		t.Errorf("%d puts filled %d log blocks, want at most %d", n, logBlocks, n/16)
	}
	if puts["lru.write_insert"] != n {
		t.Errorf("%d puts: lru.write_insert = %d, want %d (one per put)", n, puts["lru.write_insert"], n)
	}
	if puts["device.dma_write"] != n+logBlocks {
		t.Errorf("%d puts: device.dma_write = %d, want %d (one per put + one per log block)", n, puts["device.dma_write"], n+logBlocks)
	}
	delete(puts, "lru.write_insert")
	delete(puts, "device.dma_write")
	delete(puts, "labkvs.log_stage")
	if len(puts) != 0 {
		t.Errorf("puts copied at sites outside the contract: %v", puts)
	}

	for i := 0; i < n; i++ {
		call(core.OpPut, shortSize, i)
	}
	for _, size := range []int{valSize, shortSize} {
		if gets := pass(func(i int) { call(core.OpGet, size, i) }); len(gets) != 0 {
			t.Errorf("%d cached %d-byte gets through runtime.Client copied %v, want none", n, size, gets)
		}
		gets := pass(func(i int) {
			if v, err := kv.Get(key(size, i)); err != nil || len(v) != size {
				t.Fatalf("facade get %s: %d bytes, %v", key(size, i), len(v), err)
			}
		})
		if gets["labstor.value_copy_out"] != n || len(gets) != 1 {
			t.Errorf("%d cached %d-byte gets through the facade copied %v, want exactly %d at labstor.value_copy_out", n, size, gets, n)
		}
	}
}
