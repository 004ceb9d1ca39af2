// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation. Each benchmark runs its experiment at reduced scale and
// reports the experiment's headline quantity as a custom metric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation:
//
//	BenchmarkFig4Anatomy       — I/O stack anatomy (us/op write)
//	BenchmarkTable1LiveUpgrade — live upgrade overhead (virtual s)
//	BenchmarkFig5aDynamicCPU   — dynamic CPU allocation (IOPS, cores)
//	BenchmarkFig5bPartitioning — request partitioning (L-App us, C-App MB/s)
//	BenchmarkFig6StorageAPI    — storage API ladder (normalized IOPS)
//	BenchmarkFig7Metadata      — metadata throughput (kops/s)
//	BenchmarkFig8Schedulers    — I/O scheduler comparison (us)
//	BenchmarkFig9aPFS          — PFS over customized stacks (speedup)
//	BenchmarkFig9bLabios       — LABIOS label store (kops/s)
//	BenchmarkFig9cFilebench    — Filebench personalities (kops/s)
//
// Raw per-request microbenchmarks of the platform live alongside
// (BenchmarkRequestRoundTrip*, BenchmarkLabFSWrite4K, ...).
package labstor_test

import (
	"fmt"
	"testing"

	"labstor"
	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/experiments"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
)

// benchExperiment runs fn once per b.N loop (experiments are macro-level;
// b.N is typically 1) and records the named result values as metrics.
func benchExperiment(b *testing.B, fn func() (*experiments.Result, error), metrics map[string]string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		for key, unit := range metrics {
			if v, ok := res.Values[key]; ok {
				b.ReportMetric(v, unit)
			}
		}
		if i == 0 {
			b.Logf("\n%s", res.String())
		}
	}
}

func BenchmarkFig4Anatomy(b *testing.B) {
	benchExperiment(b, experiments.Anatomy, map[string]string{
		"write_us":      "us/write",
		"read_us":       "us/read",
		"write_pct_I/O": "io%",
		"write_pct_IPC": "ipc%",
	})
}

func BenchmarkTable1LiveUpgrade(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.LiveUpgrade(20000, []int{0, 256, 1024})
	}, map[string]string{
		"centralized_0":    "s@0up",
		"centralized_1024": "s@1024up",
	})
}

func BenchmarkFig5aDynamicCPU(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.DynamicCPU([]int{1, 8, 16}, 2<<20)
	}, map[string]string{
		"iops_dynamic_16":   "iops-dyn",
		"iops_8-workers_16": "iops-8w",
		"cores_dynamic_16":  "cores-dyn",
	})
}

func BenchmarkFig5bPartitioning(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Partitioning([]int{4}, 60, 1, 1<<20)
	}, map[string]string{
		"lat_round_robin_4": "us-rr",
		"lat_dynamic_4":     "us-dyn",
		"bw_round_robin_4":  "MBps-rr",
		"bw_dynamic_4":      "MBps-dyn",
	})
}

func BenchmarkFig6StorageAPI(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.StorageAPI(200)
	}, map[string]string{
		"NVMe_4096_lab_spdk":          "iops-spdk",
		"NVMe_4096_lab_kernel_driver": "iops-kd",
		"NVMe_4096_io_uring":          "iops-uring",
		"NVMe_4096_posix":             "iops-posix",
	})
}

func BenchmarkFig7Metadata(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Metadata([]int{1, 8, 24}, 200)
	}, map[string]string{
		"LabFS-All_24": "kops-laball",
		"LabFS-D_24":   "kops-labd",
		"ext4_24":      "kops-ext4",
	})
}

func BenchmarkFig8Schedulers(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Schedulers(40, 64)
	}, map[string]string{
		"Lab-NoOp_colocated_avg": "us-noop-co",
		"Lab-Blk_colocated_avg":  "us-blk-co",
		"Lab-NoOp_isolated_avg":  "us-noop-iso",
	})
}

func BenchmarkFig9aPFS(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.PFS(8, 2, 1<<20)
	}, map[string]string{
		"total_NVMe_ext4":      "s-ext4",
		"total_NVMe_LabFS-All": "s-laball",
	})
}

func BenchmarkFig9bLabios(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Labios(200)
	}, map[string]string{
		"NVMe_LabKVS-All": "ops-labkvs",
		"NVMe_ext4":       "ops-ext4",
	})
}

func BenchmarkFig9cFilebench(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Filebench(3, []device.Class{device.NVMe})
	}, map[string]string{
		"NVMe_varmail_LabFS-All": "ops-vm-lab",
		"NVMe_varmail_ext4":      "ops-vm-ext4",
	})
}

func BenchmarkAblations(b *testing.B) {
	benchExperiment(b, experiments.Ablations, map[string]string{
		"shards_1":        "kops-1shard",
		"shards_64":       "kops-64shard",
		"exec_sync_true":  "us-sync",
		"exec_sync_false": "us-async",
		"cache_true":      "us-cached",
		"cache_false":     "us-uncached",
	})
}

// --- micro-benchmarks of the platform itself -----------------------------------

func newBenchPlatform(b *testing.B) (*labstor.Platform, *labstor.Session) {
	return newBenchPlatformSampled(b, 0) // default telemetry sampling (1 in 64)
}

func newBenchPlatformSampled(b *testing.B, sampleEvery int) (*labstor.Platform, *labstor.Session) {
	b.Helper()
	p := labstor.NewPlatform(labstor.Config{Workers: 2, PerfSampleEvery: sampleEvery})
	b.Cleanup(p.Close)
	p.AddDevice("nvme0", labstor.NVMe, 1<<30)
	if _, err := p.MountSpec(`
mount: fs::/b
mods:
  - uuid: fs
    type: labstor.labfs
    attrs:
      device: nvme0
      log_mb: 32
  - uuid: sched
    type: labstor.noop
    attrs:
      device: nvme0
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`); err != nil {
		b.Fatal(err)
	}
	return p, p.Connect()
}

func BenchmarkRequestRoundTripAsync(b *testing.B) {
	_, s := newBenchPlatform(b)
	f, err := s.Create("fs::/b/bench.dat")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, int64(i%1024)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLabFSWrite4K(b *testing.B) {
	_, s := newBenchPlatform(b)
	f, _ := s.Create("fs::/b/w4k.dat")
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.WriteAt(buf, int64(i%2048)*4096)
	}
}

// BenchmarkLabFSWrite4KNoTelemetry is the telemetry-overhead control:
// identical to BenchmarkLabFSWrite4K but with sampling disabled, so the
// delta between the two is the full cost of per-stage tracing, the trace
// ring, and the metric counters.
func BenchmarkLabFSWrite4KNoTelemetry(b *testing.B) {
	_, s := newBenchPlatformSampled(b, runtime.PerfSamplingDisabled)
	f, _ := s.Create("fs::/b/w4k.dat")
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.WriteAt(buf, int64(i%2048)*4096)
	}
}

func BenchmarkLabFSRead4KCached(b *testing.B) {
	_, s := newBenchPlatform(b)
	f, _ := s.Create("fs::/b/r4k.dat")
	buf := make([]byte, 4096)
	f.WriteAt(buf, 0)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ReadAt(buf, 0)
	}
}

func BenchmarkCreateEmptyFiles(b *testing.B) {
	_, s := newBenchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Create(fmt.Sprintf("fs::/b/c-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHotpath drives b.N requests through a one-vertex dummy stack in
// windows of 64 outstanding requests, submitted with SubmitBatch and drained
// eight at a time. pooled Releases each request after WaitAll, so
// core.NewRequest reuses it; heap leaves it to the collector. Run with
// -benchmem: the heap-vs-pooled delta is allocs/op.
func benchHotpath(b *testing.B, pooled bool) {
	b.Helper()
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 4096, Batch: 8})
	b.Cleanup(rt.Shutdown)
	rt.AddDevice(device.New("dev0", device.NVMe, 32<<20))
	stack, err := rt.Mount(core.NewStack("msg::/bench", core.Rules{}, []core.Vertex{
		{UUID: "bench/dum", Type: "labstor.dummy"},
	}))
	if err != nil {
		b.Fatal(err)
	}
	rt.Start()
	cli := rt.Connect(ipc.Credentials{PID: 1, UID: 0, GID: 0})

	const window = 64
	reqs := make([]*core.Request, window)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := window
		if b.N-done < n {
			n = b.N - done
		}
		for i := 0; i < n; i++ {
			reqs[i] = core.NewRequest(core.OpMessage)
		}
		if err := cli.SubmitBatch(stack, reqs[:n]); err != nil {
			b.Fatal(err)
		}
		if err := cli.WaitAll(reqs[:n]); err != nil {
			b.Fatal(err)
		}
		if pooled {
			for i := 0; i < n; i++ {
				reqs[i].Release()
			}
		}
		done += n
	}
}

func BenchmarkHotpathBatchedHeap(b *testing.B)   { benchHotpath(b, false) }
func BenchmarkHotpathBatchedPooled(b *testing.B) { benchHotpath(b, true) }

// BenchmarkRequestLifecycleHeap / Pooled isolate the request object's
// create-trace-complete-dispose cycle (the allocation the pool removes).
func BenchmarkRequestLifecycleHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := core.NewRequest(core.OpMessage)
		r.Trace = true
		r.Charge("bench", 100)
		r.MarkDone()
	}
}

func BenchmarkRequestLifecyclePooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := core.NewRequest(core.OpMessage)
		r.Trace = true
		r.Charge("bench", 100)
		r.MarkDone()
		r.Release()
	}
}

func BenchmarkKVPut8K(b *testing.B) {
	p := labstor.NewPlatform(labstor.Config{Workers: 2})
	b.Cleanup(p.Close)
	p.AddDevice("nvme0", labstor.NVMe, 1<<30)
	if _, err := p.MountSpec(`
mount: kv::/b
mods:
  - uuid: kvs
    type: labstor.labkvs
    attrs:
      device: nvme0
      log_mb: 32
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`); err != nil {
		b.Fatal(err)
	}
	kv := p.Connect().KV("kv::/b")
	val := make([]byte, 8<<10)
	b.SetBytes(8 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put(fmt.Sprintf("k-%d", i%4096), val); err != nil {
			b.Fatal(err)
		}
	}
}
