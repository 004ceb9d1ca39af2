package workload

import (
	"fmt"
	"sync"

	"labstor/internal/stats"
	"labstor/internal/vtime"
)

// FxMarkJob is an FxMark-style metadata microbenchmark: each thread creates
// FilesPerThread empty files (the MWCM/create-stress pattern the paper uses
// for Fig. 7).
type FxMarkJob struct {
	Threads        int
	FilesPerThread int
	// SharedDir places every file in one directory (maximal lock
	// contention); otherwise each thread gets a private directory.
	SharedDir bool
	// Gate, if set, orders the threads by virtual time: thread th calls
	// Gate.Wait(th, now) before each create and Gate.Done(th) when it
	// stops. Without it, threads reach shared workers in wall-clock order
	// and the result depends on the host's core count.
	Gate Gate
}

// Gate orders closed-loop threads by virtual time.
type Gate interface {
	Wait(thread int, now vtime.Time)
	Done(thread int)
}

// FxMarkResult summarizes a run.
type FxMarkResult struct {
	Job       FxMarkJob
	Ops       int64
	ElapsedV  vtime.Duration
	OpsPerSec float64
	Latency   *stats.Sample
}

// RunFxMark executes the metadata stress against the filesystem.
func RunFxMark(fs FS, job FxMarkJob) (*FxMarkResult, error) {
	if job.Threads < 1 {
		job.Threads = 1
	}
	res := &FxMarkResult{Job: job, Latency: stats.NewSample(job.Threads * job.FilesPerThread)}
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make([]error, job.Threads)
	elapsed := make([]vtime.Duration, job.Threads)

	for th := 0; th < job.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			if job.Gate != nil {
				defer job.Gate.Done(th)
			}
			actor := fs.NewActor(th)
			dir := "fx"
			if !job.SharedDir {
				dir = fmt.Sprintf("fx%d", th)
			}
			start := actor.Now()
			for i := 0; i < job.FilesPerThread; i++ {
				path := fmt.Sprintf("%s/t%d-f%d", dir, th, i)
				opStart := actor.Now()
				if job.Gate != nil {
					job.Gate.Wait(th, opStart)
				}
				if err := actor.Create(path); err != nil {
					errs[th] = err
					return
				}
				lat := actor.Now().Sub(opStart)
				mu.Lock()
				res.Latency.Observe(float64(lat))
				res.Ops++
				mu.Unlock()
			}
			elapsed[th] = actor.Now().Sub(start)
		}(th)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, e := range elapsed {
		if e > res.ElapsedV {
			res.ElapsedV = e
		}
	}
	res.OpsPerSec = stats.Throughput(res.Ops, res.ElapsedV.Seconds())
	return res, nil
}
