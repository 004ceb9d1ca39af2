// Command labbench regenerates the paper's tables and figures (§IV,
// Figs. 4-9, Tables I-II) from the simulated reproduction in virtual time,
// and nothing else: wall-clock performance of this repository is measured
// by `bash bench/run.sh`. Run `labbench -list` to see experiment names,
// `labbench -exp anatomy` for one experiment, or `labbench -exp all`
// (default) for everything. `-quick` shrinks workload sizes for fast smoke
// runs. `-telemetry` runs the probe workload and dumps the runtime's full
// telemetry snapshot instead.
package main

import (
	"flag"
	"fmt"
	"os"
	gort "runtime"
	"runtime/pprof"
	"time"

	"labstor/internal/device"
	"labstor/internal/experiments"
)

type experiment struct {
	name string
	desc string
	run  func(quick bool) (*experiments.Result, error)
}

var catalog = []experiment{
	{"anatomy", "Fig 4(a): I/O stack anatomy", func(quick bool) (*experiments.Result, error) {
		return experiments.Anatomy()
	}},
	{"upgrade", "Table I: live upgrade overhead", func(quick bool) (*experiments.Result, error) {
		msgs := 100000
		if quick {
			msgs = 10000
		}
		return experiments.LiveUpgrade(msgs, []int{0, 256, 512, 1024})
	}},
	{"dynamiccpu", "Fig 5(a): dynamic CPU allocation", func(quick bool) (*experiments.Result, error) {
		per := int64(8 << 20)
		if quick {
			per = 2 << 20
		}
		return experiments.DynamicCPU([]int{1, 2, 4, 8, 16}, per)
	}},
	{"partition", "Fig 5(b): request partitioning", func(quick bool) (*experiments.Result, error) {
		files, reqs, bytes := 500, 2, 2<<20
		if quick {
			files, reqs, bytes = 150, 1, 1<<20
		}
		return experiments.Partitioning([]int{1, 2, 4, 8}, files, reqs, bytes)
	}},
	{"storageapi", "Fig 6: storage API performance", func(quick bool) (*experiments.Result, error) {
		ops := 400
		if quick {
			ops = 100
		}
		return experiments.StorageAPI(ops)
	}},
	{"metadata", "Fig 7: metadata throughput", func(quick bool) (*experiments.Result, error) {
		files := 400
		if quick {
			files = 100
		}
		return experiments.Metadata([]int{1, 2, 4, 8, 16, 24}, files)
	}},
	{"schedulers", "Fig 8 / Table II: I/O schedulers", func(quick bool) (*experiments.Result, error) {
		l, t := 400, 128
		if quick {
			l, t = 60, 64
		}
		return experiments.Schedulers(l, t)
	}},
	{"pfs", "Fig 9(a): PFS over customized LabStacks", func(quick bool) (*experiments.Result, error) {
		ranks, steps, bytes := 16, 4, int64(2<<20)
		if quick {
			ranks, steps, bytes = 8, 2, 1<<20
		}
		return experiments.PFS(ranks, steps, bytes)
	}},
	{"labios", "Fig 9(b): LABIOS label store", func(quick bool) (*experiments.Result, error) {
		labels := 400
		if quick {
			labels = 100
		}
		return experiments.Labios(labels)
	}},
	{"ablations", "Ablations: sharding / exec mode / cache / readahead", func(quick bool) (*experiments.Result, error) {
		return experiments.Ablations()
	}},
	{"filebench", "Fig 9(c,d): Filebench personalities", func(quick bool) (*experiments.Result, error) {
		iters := 8
		devs := []device.Class{device.NVMe, device.PMEM}
		if quick {
			iters = 3
			devs = []device.Class{device.NVMe}
		}
		return experiments.Filebench(iters, devs)
	}},
}

func main() { os.Exit(run()) }

// run is main's body; it returns the exit status instead of calling
// os.Exit so the deferred profile writers fire on failure paths too.
func run() int {
	exp := flag.String("exp", "all", "experiment name or 'all'")
	quick := flag.Bool("quick", false, "shrink workload sizes for a fast smoke run")
	list := flag.Bool("list", false, "list experiments and exit")
	telem := flag.Bool("telemetry", false, "run the probe workload and dump the telemetry snapshot")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to FILE")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to FILE")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			gort.GC() // flush recent frees so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *telem {
		ops := 500
		if *quick {
			ops = 100
		}
		snap, err := experiments.TelemetryProbe(nil, ops)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry probe failed: %v\n", err)
			return 1
		}
		fmt.Print(snap.String())
		return 0
	}

	if *list {
		for _, e := range catalog {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return 0
	}

	ran := 0
	for _, e := range catalog {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran++
		start := time.Now()
		res, err := e.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.name, err)
			return 1
		}
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %s wall time)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		return 1
	}
	return 0
}
