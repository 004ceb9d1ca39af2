package experiments

import (
	"fmt"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
	"labstor/internal/workload"
)

// Ablations quantifies the design choices the platform's performance story
// rests on, each isolated with an on/off (or 1-vs-N) comparison:
//
//   - inode-hashmap sharding — LabFS's metadata scalability claim
//     (1 shard vs 64 shards at 24 threads);
//   - decentralized execution — the cost of the centralized authority
//     (sync vs async execution of the same stack, single thread);
//   - the LRU page cache — re-read throughput with and without it;
//   - predictive readahead — cold sequential read latency with and
//     without the prefetcher.
func Ablations() (*Result, error) {
	res := &Result{Name: "Ablations: the platform's load-bearing design choices"}
	res.Table = newTable("Choice", "Variant", "Metric", "Value")

	// --- 1. inode hashmap sharding -------------------------------------------
	for _, shards := range []int{1, 64} {
		kops, err := ablationShards(shards)
		if err != nil {
			return nil, err
		}
		res.Table.AddRowf("inode-sharding", fmt.Sprintf("%d shards", shards), "creates kops/s (24T)", kops)
		res.V(fmt.Sprintf("shards_%d", shards), kops)
	}

	// --- 2. centralized vs decentralized execution ----------------------------
	for _, sync := range []bool{false, true} {
		name := "async (centralized)"
		if sync {
			name = "sync (decentralized)"
		}
		us, err := ablationExecMode(sync)
		if err != nil {
			return nil, err
		}
		res.Table.AddRowf("execution-mode", name, "4K write us/op", us)
		res.V(fmt.Sprintf("exec_sync_%v", sync), us)
	}

	// --- 3. LRU page cache ------------------------------------------------------
	for _, cache := range []bool{false, true} {
		name := "no cache"
		if cache {
			name = "LRU cache"
		}
		us, err := ablationCache(cache)
		if err != nil {
			return nil, err
		}
		res.Table.AddRowf("page-cache", name, "re-read us/op", us)
		res.V(fmt.Sprintf("cache_%v", cache), us)
	}

	// --- 4. predictive readahead ----------------------------------------------
	for _, ra := range []bool{false, true} {
		name := "no readahead"
		if ra {
			name = "readahead"
		}
		us, err := ablationReadahead(ra)
		if err != nil {
			return nil, err
		}
		res.Table.AddRowf("readahead", name, "cold seq read us/op", us)
		res.V(fmt.Sprintf("readahead_%v", ra), us)
	}
	return res, nil
}

func ablationShards(shards int) (float64, error) {
	rt := runtime.New(runtime.Options{MaxWorkers: 16, QueueDepth: 4096})
	rt.AddDevice(device.New("dev0", device.NVMe, 1<<30))
	if _, err := rt.MountSpec(fmt.Sprintf(`
mount: fs::/ab
mods:
  - uuid: fs
    type: labstor.labfs
    attrs:
      device: dev0
      log_mb: 32
      shards: "%d"
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: dev0
`, shards)); err != nil {
		return 0, err
	}
	rt.Start()
	defer rt.Shutdown()
	fs := &workload.LabStorFS{FSName: "labfs", RT: rt, Mount: "fs::/ab"}
	const threads = 24
	r, err := workload.RunFxMark(fs, workload.FxMarkJob{Threads: threads, FilesPerThread: 150, SharedDir: true,
		Gate: NewLockstep(threads)})
	if err != nil {
		return 0, err
	}
	return r.OpsPerSec / 1000, nil
}

func ablationExecMode(sync bool) (float64, error) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 1024})
	rt.AddDevice(device.New("dev0", device.NVMe, 256<<20))
	cfg := LabCfg{Sched: "noop", Driver: "kernel_driver", LogMB: 8, Sync: sync}
	if _, err := MountLab(rt, "fs::/ab", "dev0", cfg); err != nil {
		return 0, err
	}
	rt.Start()
	defer rt.Shutdown()
	cli := rt.Connect(ipc.Credentials{PID: 1, UID: 1000, GID: 1000})
	buf := make([]byte, 4096)
	const ops = 300
	start := cli.Clock()
	for i := 0; i < ops; i++ {
		req := core.NewRequest(core.OpWrite)
		req.Path = "f.dat"
		req.Flags = core.FlagCreate
		req.Offset = int64(i%64) * 4096
		req.Size = len(buf)
		req.Data = buf
		if err := cli.Submit("fs::/ab", req); err != nil {
			return 0, err
		}
		if req.Err != nil {
			return 0, req.Err
		}
	}
	return cli.Clock().Sub(start).Micros() / ops, nil
}

func ablationCache(cache bool) (float64, error) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 1024})
	rt.AddDevice(device.New("dev0", device.NVMe, 256<<20))
	cfg := LabCfg{Sched: "noop", Driver: "kernel_driver", LogMB: 8, Cache: cache}
	if _, err := MountLab(rt, "fs::/ab", "dev0", cfg); err != nil {
		return 0, err
	}
	rt.Start()
	defer rt.Shutdown()
	cli := rt.Connect(ipc.Credentials{PID: 1, UID: 1000, GID: 1000})
	buf := make([]byte, 4096)
	w := core.NewRequest(core.OpWrite)
	w.Path = "f.dat"
	w.Flags = core.FlagCreate
	w.Size = len(buf)
	w.Data = buf
	if err := cli.Submit("fs::/ab", w); err != nil {
		return 0, err
	}
	const ops = 300
	start := cli.Clock()
	for i := 0; i < ops; i++ {
		r := core.NewRequest(core.OpRead)
		r.Path = "f.dat"
		r.Size = len(buf)
		r.Data = buf
		if err := cli.Submit("fs::/ab", r); err != nil {
			return 0, err
		}
	}
	return cli.Clock().Sub(start).Micros() / ops, nil
}

func ablationReadahead(ra bool) (float64, error) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 1024})
	dev := device.New("dev0", device.NVMe, 256<<20)
	rt.AddDevice(dev)
	vs := []core.Vertex{}
	if ra {
		vs = append(vs, core.Vertex{UUID: "ra", Type: "labstor.readahead",
			Attrs: map[string]string{"trigger": "2", "window": "8"}})
	}
	vs = append(vs, core.Vertex{UUID: "drv", Type: "labstor.kernel_driver",
		Attrs: map[string]string{"device": "dev0"}})
	for i := range vs {
		if i+1 < len(vs) {
			vs[i].Outputs = []string{vs[i+1].UUID}
		}
	}
	if _, err := rt.Mount(core.NewStack("blk::/ab", core.Rules{}, vs)); err != nil {
		return 0, err
	}
	rt.Start()
	defer rt.Shutdown()
	cli := rt.Connect(ipc.Credentials{PID: 1})
	buf := make([]byte, 4096)
	const ops = 200
	start := cli.Clock()
	for i := 0; i < ops; i++ {
		r := core.NewRequest(core.OpBlockRead)
		r.Offset = int64(i) * 4096
		r.Size = len(buf)
		r.Data = buf
		if err := cli.Submit("blk::/ab", r); err != nil {
			return 0, err
		}
	}
	return cli.Clock().Sub(start).Micros() / ops, nil
}
