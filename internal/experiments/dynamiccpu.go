package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
	"labstor/internal/vtime"
)

// DynamicCPU reproduces Fig. 5(a), "Work orchestration: dynamic CPU
// allocation": clients issue random 4KB writes through a No-Op +
// KernelDriver LabStack over NVMe; the experiment varies the client count
// and compares three Runtime worker configurations — 1 worker, 8 workers,
// and the dynamic orchestration policy — on IOPS and CPU cores consumed.
//
// Paper result: a single worker saturates beyond ~2-4 clients (IOPS drop
// ~50%); 8 workers hold peak IOPS but burn ~25% more CPU than dynamic,
// which matches 8-worker IOPS using about half the cores.
func DynamicCPU(clientCounts []int, bytesPerClient int64) (*Result, error) {
	if len(clientCounts) == 0 {
		clientCounts = []int{1, 2, 4, 8, 16}
	}
	if bytesPerClient <= 0 {
		bytesPerClient = 8 << 20
	}

	res := &Result{Name: "Fig 5(a): dynamic CPU allocation (random 4KB writes, NVMe)"}
	res.Table = newTable("Clients", "Config", "KIOPS", "Cores")

	type config struct {
		name    string
		workers int
		policy  string
	}
	configs := []config{
		{"1-worker", 1, "round_robin"},
		{"8-workers", 8, "round_robin"},
		{"dynamic", 8, "dynamic"},
	}

	for _, nClients := range clientCounts {
		for _, cfg := range configs {
			iops, cores, err := runDynamicTrial(cfg.workers, cfg.policy, nClients, bytesPerClient)
			if err != nil {
				return nil, err
			}
			res.Table.AddRowf(nClients, cfg.name, iops/1000, cores)
			res.V(fmt.Sprintf("iops_%s_%d", cfg.name, nClients), iops)
			res.V(fmt.Sprintf("cores_%s_%d", cfg.name, nClients), cores)
		}
	}
	res.Notes = "Cores = workers actively polling (dynamic decommissions idle workers); IOPS in modeled virtual time"
	return res, nil
}

func runDynamicTrial(workers int, policy string, nClients int, bytesPerClient int64) (iops, cores float64, err error) {
	rt := runtime.New(runtime.Options{
		MaxWorkers:     workers,
		QueueDepth:     4096,
		Policy:         policy,
		RebalanceEvery: 2 * time.Millisecond,
	})
	dev := device.New("dev0", device.NVMe, 2<<30)
	rt.AddDevice(dev)
	if _, err := MountLab(rt, "blk::/raw", "dev0", LabCfg{NoFS: true, Sched: "noop", Driver: "kernel_driver"}); err != nil {
		return 0, 0, err
	}
	rt.Start()
	defer rt.Shutdown()

	stack, _ := rt.Namespace.Lookup("blk::/raw")
	nOps := bytesPerClient / 4096
	maxOff := dev.Capacity()/4096 - 1

	var wg sync.WaitGroup
	errs := make([]error, nClients)
	elapsed := make([]vtime.Duration, nClients)
	var sampleMu sync.Mutex
	var samples []int
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				sampleMu.Lock()
				samples = append(samples, rt.ActiveWorkers())
				sampleMu.Unlock()
			}
		}
	}()

	// Clients sharing a worker must reach it in virtual-time order, or the
	// measured IOPS depends on how many host cores run them (Lockstep).
	gate := NewLockstep(nClients)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer gate.Done(c)
			cli := rt.Connect(ipc.Credentials{PID: 100 + c, UID: 1000, GID: 1000})
			cli.OriginCore = c
			rng := rand.New(rand.NewSource(int64(c)*31 + 7))
			buf := make([]byte, 4096)
			start := cli.Clock()
			for i := int64(0); i < nOps; i++ {
				gate.Wait(c, cli.Clock())
				req := core.NewRequest(core.OpBlockWrite)
				req.Offset = rng.Int63n(maxOff) * 4096
				req.Size = len(buf)
				req.Data = buf
				if err := cli.SubmitStack(stack, req); err != nil {
					errs[c] = err
					return
				}
				if req.Err != nil {
					errs[c] = req.Err
					return
				}
			}
			elapsed[c] = cli.Clock().Sub(start)
		}(c)
	}
	wg.Wait()
	close(stop)
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	var maxE vtime.Duration
	for _, e := range elapsed {
		if e > maxE {
			maxE = e
		}
	}
	totalOps := nOps * int64(nClients)
	iops = float64(totalOps) / maxE.Seconds()

	// Cores: mean sampled active workers (every active worker polls a core).
	<-samplerDone
	sum := 0
	sampleMu.Lock()
	n := len(samples)
	for _, a := range samples {
		sum += a
	}
	sampleMu.Unlock()
	if n == 0 {
		cores = float64(rt.ActiveWorkers())
	} else {
		cores = float64(sum) / float64(n)
	}
	return iops, cores, nil
}
