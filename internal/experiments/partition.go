package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
	"labstor/internal/stats"
	"labstor/internal/vtime"
)

// Partitioning reproduces Fig. 5(b), "Work orchestration: request
// partitioning": a latency-sensitive LabStack (LabFS + LRU + No-Op +
// KernelDriver) serves a metadata-intensive L-App, while a compressor
// LabStack (adds the compression LabMod) serves a large-I/O C-App. Both run
// 8 threads; the worker count varies; round-robin and dynamic orchestration
// are compared on L-App latency and C-App bandwidth.
//
// Paper result: RR maximizes bandwidth (all workers share the C-App) but
// destroys L-App latency — small requests wait behind multi-millisecond
// compressions (head-of-line). Dynamic sends L queues to dedicated workers:
// latency improves by orders of magnitude at a bandwidth cost that shrinks
// (30% -> 6%) as workers are added.
func Partitioning(workerCounts []int, filesPerLThread, cReqsPerThread, cReqBytes int) (*Result, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	if filesPerLThread <= 0 {
		filesPerLThread = 500
	}
	if cReqsPerThread <= 0 {
		cReqsPerThread = 2
	}
	if cReqBytes <= 0 {
		cReqBytes = 2 << 20
	}

	res := &Result{Name: "Fig 5(b): request partitioning (L-App latency vs C-App bandwidth)"}
	res.Table = newTable("Workers", "Policy", "L avg (us)", "L p99 (us)", "C BW (MB/s)")

	for _, w := range workerCounts {
		for _, policy := range []string{"round_robin", "dynamic"} {
			lAvg, lP99, cBW, err := runPartitionTrial(w, policy, filesPerLThread, cReqsPerThread, cReqBytes)
			if err != nil {
				return nil, err
			}
			res.Table.AddRowf(w, policy, lAvg, lP99, cBW)
			res.V(fmt.Sprintf("lat_%s_%d", policy, w), lAvg)
			res.V(fmt.Sprintf("bw_%s_%d", policy, w), cBW)
		}
	}
	res.Notes = "8 L-App threads (file creates) + 8 C-App threads (large compressed writes)"
	return res, nil
}

func runPartitionTrial(workers int, policy string, lFiles, cReqs, cBytes int) (lAvg, lP99, cBW float64, err error) {
	rt := runtime.New(runtime.Options{
		MaxWorkers:     workers,
		QueueDepth:     4096,
		Policy:         policy,
		RebalanceEvery: 2 * time.Millisecond,
	})
	dev := device.New("dev0", device.NVMe, 4<<30)
	rt.AddDevice(dev)
	if _, err := MountLab(rt, "fs::/L", "dev0", LabCfg{Cache: true, Sched: "noop", Driver: "kernel_driver", Prefix: "L", LogMB: 8}); err != nil {
		return 0, 0, 0, err
	}
	if _, err := MountLab(rt, "fs::/C", "dev0", LabCfg{Compress: true, Sched: "noop", Driver: "kernel_driver", Prefix: "C", LogMB: 8}); err != nil {
		return 0, 0, 0, err
	}
	rt.Start()
	defer rt.Shutdown()

	const threads = 8
	var wg sync.WaitGroup
	errs := make([]error, 2*threads)
	lat := stats.NewSample(threads * lFiles)
	var latMu sync.Mutex
	cElapsed := make([]vtime.Duration, threads)
	var cBytesTotal int64
	var cMu sync.Mutex
	var lDone atomic.Int32

	cStack, _ := rt.Namespace.Lookup("fs::/C")

	// Connect every client up front in a fixed order (all C, then all L) so
	// the round-robin policy deterministically colocates one C and one L
	// queue per worker — the colocation the paper's RR baseline suffers.
	cClis := make([]*runtime.Client, threads)
	lClis := make([]*runtime.Client, threads)
	for t := 0; t < threads; t++ {
		cClis[t] = rt.Connect(ipc.Credentials{PID: 200 + t, UID: 1000, GID: 1000})
		cClis[t].OriginCore = threads + t
	}
	for t := 0; t < threads; t++ {
		lClis[t] = rt.Connect(ipc.Credentials{PID: 100 + t, UID: 1000, GID: 1000})
		lClis[t].OriginCore = t
	}

	// The L-App starts once every C thread has completed a write, so its
	// measurement always overlaps the C stream. Without this a fast
	// hand-off let the L-App finish before the first C write was even
	// submitted: no interference, and no C bandwidth to report.
	var cRunning sync.WaitGroup
	cRunning.Add(threads)

	// C-App: each thread streams large writes continuously (batches of
	// cReqs outstanding) until the L-App finishes its measurement — the
	// paper's C-App writes 125GB/thread, far outlasting the L-App.
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			running := false
			defer func() {
				if !running {
					cRunning.Done() // failed before its first write
				}
			}()
			cli := cClis[t]
			rng := rand.New(rand.NewSource(int64(t) * 7))
			data := make([]byte, cBytes)
			for i := range data {
				data[i] = byte(rng.Intn(16)) // compressible
			}
			start := cli.Clock()
			var written int64
			for i := 0; lDone.Load() < threads; i++ {
				reqs := make([]*core.Request, 0, cReqs)
				for j := 0; j < cReqs; j++ {
					req := core.NewRequest(core.OpWrite)
					req.Path = fmt.Sprintf("big%d.dat", t)
					req.Flags = core.FlagCreate
					// Cycle over a bounded file window so the extent map (and
					// with it the metadata log) stays finite during the
					// unbounded stream.
					req.Offset = int64((i*cReqs+j)%16) * int64(cBytes)
					req.Size = len(data)
					req.Data = data
					if err := cli.SubmitBatch(cStack, []*core.Request{req}); err != nil {
						errs[threads+t] = err
						return
					}
					reqs = append(reqs, req)
				}
				if err := cli.WaitAll(reqs); err != nil {
					errs[threads+t] = err
					return
				}
				written += int64(cBytes) * int64(cReqs)
				if !running {
					running = true
					cRunning.Done()
				}
			}
			cElapsed[t] = cli.Clock().Sub(start)
			cMu.Lock()
			cBytesTotal += written
			cMu.Unlock()
		}(t)
	}

	// L-App: a fixed number of file creates, all overlapping the C stream.
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer lDone.Add(1)
			cRunning.Wait()
			cli := lClis[t]
			warm := lFiles / 4
			for i := 0; i < lFiles+warm; i++ {
				req := core.NewRequest(core.OpCreate)
				req.Path = fmt.Sprintf("ldir%d/f%d", t, i)
				req.Mode = 0644
				before := cli.Clock()
				if err := cli.Submit("fs::/L", req); err != nil || req.Err != nil {
					if err == nil {
						err = req.Err
					}
					errs[t] = err
					return
				}
				if i >= warm {
					latMu.Lock()
					lat.Observe(float64(cli.Clock().Sub(before)))
					latMu.Unlock()
				}
			}
		}(t)
	}

	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, 0, e
		}
	}
	var maxC vtime.Duration
	for _, e := range cElapsed {
		if e > maxC {
			maxC = e
		}
	}
	lAvg = lat.Mean() / float64(vtime.Microsecond)
	lP99 = lat.Percentile(99) / float64(vtime.Microsecond)
	cBW = stats.MBps(cBytesTotal, maxC.Seconds())
	return lAvg, lP99, cBW, nil
}
