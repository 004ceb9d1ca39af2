package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/kernel"
	"labstor/internal/runtime"
	"labstor/internal/stats"
	"labstor/internal/vtime"
)

// Schedulers reproduces Fig. 8 / Table II, "Developing & customizing I/O
// policies": the No-Op and blk-switch I/O schedulers integrated into
// LabStor versus their in-kernel counterparts. A throughput-bound T-App
// (8 threads, 64KB random writes, queue depth 32) and a latency-bound
// L-App (8 threads, 4KB random writes, queue depth 1) run either isolated
// (disjoint cores/queues) or colocated (sharing cores); the experiment
// reports the L-App's average and P99 latency.
//
// Paper result: isolated, No-Op matches or beats blk-switch (everything is
// already on separate queues, and No-Op is cheaper — Lab-NoOp ~5% under
// Lab-Blk). Colocated, No-Op suffers head-of-line blocking behind 64KB
// bursts (~945 us vs ~106 us for blk-switch); LabStor's blk-switch
// undercuts the kernel's by ~20% by skipping the syscall/block layers.
func Schedulers(lOps, tOps int) (*Result, error) {
	if lOps <= 0 {
		lOps = 400
	}
	if tOps <= 0 {
		tOps = 100
	}
	res := &Result{Name: "Fig 8 / Table II: I/O scheduler comparison (L-App latency)"}
	res.Table = newTable("System", "Scenario", "Avg (us)", "P99 (us)")

	systems := []string{"Linux-NoOp", "Linux-Blk", "Lab-NoOp", "Lab-Blk"}
	for _, sys := range systems {
		for _, colocated := range []bool{false, true} {
			scenario := "isolated"
			if colocated {
				scenario = "colocated"
			}
			avg, p99, err := runSchedulerTrial(sys, colocated, lOps, tOps)
			if err != nil {
				return nil, err
			}
			res.Table.AddRowf(sys, scenario, avg, p99)
			res.V(fmt.Sprintf("%s_%s_avg", sys, scenario), avg)
			res.V(fmt.Sprintf("%s_%s_p99", sys, scenario), p99)
		}
	}
	res.Notes = "T-App: 8 threads, 64KB randwrite, qd32. L-App: 8 threads, 4KB randwrite, qd1."
	return res, nil
}

const schedThreads = 8

func runSchedulerTrial(system string, colocated bool, lOps, tOps int) (avg, p99 float64, err error) {
	lat := stats.NewSample(schedThreads * lOps)
	var mu sync.Mutex

	lCore := func(i int) int { return i }
	tCore := func(i int) int {
		if colocated {
			return i // share the L-App's cores -> same hardware queues
		}
		return schedThreads + i
	}

	var lDone atomic.Int32
	pacer := NewPacer(64)

	switch system {
	case "Linux-NoOp", "Linux-Blk":
		dev := device.New("raw", device.NVMe, 8<<30)
		model := vtime.Default()
		newEng := func() (*kernel.Engine, error) { return kernel.NewEngine("io_uring", dev, model) }

		var wg sync.WaitGroup
		errs := make([]error, 2*schedThreads)
		// T-App threads: stream 64KB bursts at qd32 until the L-App's
		// measurement completes.
		for i := 0; i < schedThreads; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				eng, e := newEng()
				if e != nil {
					errs[i] = e
					return
				}
				// blk-switch keeps throughput-bound I/O core-keyed.
				eng.Pace = pacer.Pace
				t := kernel.NewThread(tCore(i))
				rng := rand.New(rand.NewSource(int64(i)))
				maxOff := dev.Capacity()/(128<<10) - 1
				for lDone.Load() < schedThreads {
					ops := make([]kernel.IOOp, tOps)
					for j := range ops {
						ops[j] = kernel.IOOp{Op: device.Write, Offset: rng.Int63n(maxOff) * (64 << 10), Size: 64 << 10}
					}
					if _, e := eng.RunQueue(t, ops, 32, nil); e != nil {
						errs[i] = e
						return
					}
				}
			}(i)
		}
		// L-App threads.
		for i := 0; i < schedThreads; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer lDone.Add(1)
				eng, e := newEng()
				if e != nil {
					errs[schedThreads+i] = e
					return
				}
				if system == "Linux-Blk" {
					eng.SetQueueSteer(kernel.BlkSwitchSteer(dev))
					// In-kernel steering: load computation + cross-core
					// request handoff through the target hctx lock.
					eng.AddSubmitCost(2 * model.BlkSwitchSched)
				}
				t := kernel.NewThread(lCore(i))
				rng := rand.New(rand.NewSource(int64(100 + i)))
				buf := make([]byte, 4096)
				maxOff := dev.Capacity()/4096 - 1
				warm := lOps / 4
				for j := 0; j < lOps+warm; j++ {
					d, e := eng.DoIO(t, device.Write, rng.Int63n(maxOff)*4096, buf)
					if e != nil {
						errs[schedThreads+i] = e
						return
					}
					if j >= warm {
						mu.Lock()
						lat.Observe(float64(d))
						mu.Unlock()
					}
					pacer.Pace(t.Now())
				}
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return 0, 0, e
			}
		}

	case "Lab-NoOp", "Lab-Blk":
		sched := "noop"
		if system == "Lab-Blk" {
			sched = "blkswitch"
		}
		rt := runtime.New(runtime.Options{MaxWorkers: 8, QueueDepth: 4096})
		dev := device.New("dev0", device.NVMe, 8<<30)
		rt.AddDevice(dev)
		if _, err := MountLab(rt, "blk::/raw", "dev0", LabCfg{NoFS: true, Sched: sched, Driver: "kernel_driver"}); err != nil {
			return 0, 0, err
		}
		rt.Start()
		defer rt.Shutdown()
		stack, _ := rt.Namespace.Lookup("blk::/raw")

		var wg sync.WaitGroup
		errs := make([]error, 2*schedThreads)
		tWindows := make([][]*core.Request, schedThreads)
		// Deterministic connect order: T clients then L clients, so RR
		// queue assignment colocates one of each per worker.
		tClis := make([]*runtime.Client, schedThreads)
		lClis := make([]*runtime.Client, schedThreads)
		for i := 0; i < schedThreads; i++ {
			tClis[i] = rt.Connect(ipc.Credentials{PID: 300 + i, UID: 1000, GID: 1000})
			tClis[i].OriginCore = tCore(i)
		}
		for i := 0; i < schedThreads; i++ {
			lClis[i] = rt.Connect(ipc.Credentials{PID: 400 + i, UID: 1000, GID: 1000})
			lClis[i].OriginCore = lCore(i)
		}
		// T-App: keep a sliding window of 32 requests outstanding (true
		// queue-depth semantics: one new submission per completion) until
		// the L-App completes.
		for i := 0; i < schedThreads; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cli := tClis[i]
				rng := rand.New(rand.NewSource(int64(i)))
				buf := make([]byte, 64<<10)
				maxOff := dev.Capacity()/(128<<10) - 1
				submit := func() bool {
					req := core.NewRequest(core.OpBlockWrite)
					req.Offset = rng.Int63n(maxOff) * (64 << 10)
					req.Size = len(buf)
					req.Data = buf
					if e := cli.SubmitBatch(stack, []*core.Request{req}); e != nil {
						errs[i] = e
						return false
					}
					window := append(tWindows[i], req)
					tWindows[i] = window
					return true
				}
				for lDone.Load() < schedThreads {
					for len(tWindows[i]) < 32 {
						if !submit() {
							return
						}
					}
					oldest := tWindows[i][0]
					tWindows[i] = tWindows[i][1:]
					if e := cli.WaitAll([]*core.Request{oldest}); e != nil {
						errs[i] = e
						return
					}
					pacer.Pace(oldest.Clock)
				}
			}(i)
		}
		for i := 0; i < schedThreads; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer lDone.Add(1)
				cli := lClis[i]
				rng := rand.New(rand.NewSource(int64(100 + i)))
				buf := make([]byte, 4096)
				maxOff := dev.Capacity()/4096 - 1
				warm := lOps / 4
				for j := 0; j < lOps+warm; j++ {
					req := core.NewRequest(core.OpBlockWrite)
					req.Trace = debugSched
					req.Offset = rng.Int63n(maxOff) * 4096
					req.Size = len(buf)
					req.Data = buf
					if e := cli.SubmitStack(stack, req); e != nil || req.Err != nil {
						if e == nil {
							e = req.Err
						}
						errs[schedThreads+i] = e
						return
					}
					if j >= warm {
						mu.Lock()
						lat.Observe(float64(req.Latency()))
						mu.Unlock()
						if debugSched && req.Latency() > 500*vtime.Microsecond {
							fmt.Printf("slow L op: cli=%d lat=%v hctx=%d cpu=%v stages=%v\n",
								i, req.Latency(), req.Hctx, req.CPUTime, req.Stages)
						}
					}
					pacer.Pace(cli.Clock())
				}
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return 0, 0, e
			}
		}
	default:
		return 0, 0, fmt.Errorf("experiments: unknown scheduler system %q", system)
	}

	return lat.Mean() / float64(vtime.Microsecond), lat.Percentile(99) / float64(vtime.Microsecond), nil
}

// debugSched enables slow-request tracing in the scheduler trials.
var debugSched = false
