package workload_test

import (
	"sync"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/kernel"
	_ "labstor/internal/mods/allmods"
	"labstor/internal/runtime"
	"labstor/internal/vtime"
	"labstor/internal/workload"
)

func kernelFS(t *testing.T, name string) workload.FS {
	t.Helper()
	prof, err := kernel.KFSProfileFor(name)
	if err != nil {
		t.Fatal(err)
	}
	return &workload.KernelFS{FSName: name, KFS: kernel.NewKFS(prof, device.New("d", device.NVMe, 2<<30), vtime.Default())}
}

func labFS(t *testing.T) (workload.FS, func()) {
	t.Helper()
	rt := runtime.New(runtime.Options{MaxWorkers: 4, QueueDepth: 2048})
	rt.AddDevice(device.New("dev0", device.NVMe, 2<<30))
	if _, err := rt.MountSpec(`
mount: fs::/w
mods:
  - uuid: fs
    type: labstor.labfs
    attrs:
      device: dev0
      log_mb: 16
  - uuid: sched
    type: labstor.noop
    attrs:
      device: dev0
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: dev0
`); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	return &workload.LabStorFS{FSName: "labfs", RT: rt, Mount: "fs::/w"}, rt.Shutdown
}

func TestFioOnKernelFS(t *testing.T) {
	res, err := workload.RunFio(kernelFS(t, "ext4"), workload.FioJob{
		Name: "t", Threads: 2, BlockSize: 4096, TotalBytes: 256 << 10, Random: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantOps := int64(2 * (256 << 10) / 4096)
	if res.Ops != wantOps {
		t.Fatalf("ops %d want %d", res.Ops, wantOps)
	}
	if res.IOPS <= 0 || res.ElapsedV <= 0 {
		t.Fatal("no throughput computed")
	}
	if res.Latency.Count() != int(wantOps) {
		t.Fatal("latency samples")
	}
}

func TestFioReadWriteMix(t *testing.T) {
	res, err := workload.RunFio(kernelFS(t, "xfs"), workload.FioJob{
		Name: "mix", Threads: 1, BlockSize: 8192, TotalBytes: 128 << 10, ReadRatio: 0.5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth <= 0 {
		t.Fatal("bandwidth")
	}
}

func TestFioOnLabStor(t *testing.T) {
	fs, closefn := labFS(t)
	defer closefn()
	res, err := workload.RunFio(fs, workload.FioJob{
		Name: "lab", Threads: 2, BlockSize: 4096, TotalBytes: 128 << 10, Random: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 64 {
		t.Fatalf("ops %d", res.Ops)
	}
}

func TestFxMarkSharedVsPrivate(t *testing.T) {
	shared, err := workload.RunFxMark(kernelFS(t, "ext4"), workload.FxMarkJob{Threads: 4, FilesPerThread: 50, SharedDir: true})
	if err != nil {
		t.Fatal(err)
	}
	private, err := workload.RunFxMark(kernelFS(t, "ext4"), workload.FxMarkJob{Threads: 4, FilesPerThread: 50})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Ops != 200 || private.Ops != 200 {
		t.Fatal("op counts")
	}
	if shared.OpsPerSec <= 0 || private.OpsPerSec <= 0 {
		t.Fatal("rates")
	}
}

// recordGate counts each thread's Wait and Done calls and checks that a
// thread's clock never runs backwards.
type recordGate struct {
	mu    sync.Mutex
	waits []int
	dones []int
	last  []vtime.Time
	bad   bool
}

func (g *recordGate) Wait(th int, now vtime.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.waits[th]++
	g.bad = g.bad || now < g.last[th]
	g.last[th] = now
}

func (g *recordGate) Done(th int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dones[th]++
}

func TestFxMarkGateSeesEveryCreate(t *testing.T) {
	const threads, files = 3, 20
	g := &recordGate{waits: make([]int, threads), dones: make([]int, threads), last: make([]vtime.Time, threads)}
	res, err := workload.RunFxMark(kernelFS(t, "ext4"), workload.FxMarkJob{Threads: threads, FilesPerThread: files, SharedDir: true, Gate: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != threads*files {
		t.Fatalf("ops %d", res.Ops)
	}
	for th := 0; th < threads; th++ {
		if g.waits[th] != files || g.dones[th] != 1 {
			t.Fatalf("thread %d: %d waits, %d dones; want %d and 1", th, g.waits[th], g.dones[th], files)
		}
	}
	if g.bad {
		t.Fatal("a thread's clock ran backwards between waits")
	}
}

func TestFilebenchPersonalities(t *testing.T) {
	for _, p := range []string{"varmail", "webserver", "webproxy", "fileserver"} {
		res, err := workload.RunFilebench(kernelFS(t, "f2fs"), workload.FilebenchJob{
			Personality: p, Threads: 2, Files: 8, Iterations: 2, Seed: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Ops <= 0 || res.OpsPerSec <= 0 {
			t.Fatalf("%s: no ops", p)
		}
	}
	if _, err := workload.RunFilebench(kernelFS(t, "ext4"), workload.FilebenchJob{Personality: "nope"}); err == nil {
		t.Fatal("unknown personality accepted")
	}
}

func TestVPICAndBDCATS(t *testing.T) {
	fs := kernelFS(t, "ext4")
	vres, err := workload.RunVPIC(fs, workload.VPICJob{Ranks: 2, Particles: 1000, Steps: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(2 * 2 * 1000 * 32)
	if vres.Bytes != wantBytes {
		t.Fatalf("vpic bytes %d want %d", vres.Bytes, wantBytes)
	}
	rres, err := workload.RunBDCATS(fs, workload.BDCATSJob{Ranks: 2, Particles: 1000, Steps: 2, ReadBlock: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rres.Bytes != wantBytes {
		t.Fatalf("bdcats bytes %d want %d", rres.Bytes, wantBytes)
	}
}

func TestLabiosFileTranslationVsNative(t *testing.T) {
	// File translation over a kernel FS.
	fileKV := workload.FileKV(kernelFS(t, "ext4"))
	fres, err := workload.RunLabios(fileKV, workload.LabiosJob{Threads: 1, Labels: 30, LabelSize: 8 << 10, ReadBack: true})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Ops != 60 {
		t.Fatalf("ops %d", fres.Ops)
	}

	// Native LabKVS.
	rt := runtime.New(runtime.Options{MaxWorkers: 2, QueueDepth: 1024})
	rt.AddDevice(device.New("dev0", device.NVMe, 1<<30))
	if _, err := rt.MountSpec(`
mount: kv::/l
mods:
  - uuid: kvs
    type: labstor.labkvs
    attrs:
      device: dev0
      log_mb: 4
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: dev0
`); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Shutdown()
	kv := &workload.LabStorKVS{KVName: "labkvs", RT: rt, Mount: "kv::/l"}
	nres, err := workload.RunLabios(kv, workload.LabiosJob{Threads: 1, Labels: 30, LabelSize: 8 << 10, ReadBack: true})
	if err != nil {
		t.Fatal(err)
	}
	if nres.OpsPerSec <= fres.OpsPerSec {
		t.Fatalf("LabKVS (%0.f op/s) must beat file translation (%0.f op/s)", nres.OpsPerSec, fres.OpsPerSec)
	}
	// Values round-trip through the adapter.
	actor := kv.NewKVActor(9)
	if err := actor.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := actor.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("kv adapter: %q %v", got, err)
	}
	if err := actor.Del("k"); err != nil {
		t.Fatal(err)
	}
}

func TestLabStorActorSurface(t *testing.T) {
	fs, closefn := labFS(t)
	defer closefn()
	a := fs.NewActor(0)
	if err := a.Mkdir("d"); err != nil {
		t.Fatal(err)
	}
	if err := a.Create("d/f"); err != nil {
		t.Fatal(err)
	}
	if err := a.Write("d/f", 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := a.Read("d/f", 0, buf); err != nil || n != 4 {
		t.Fatalf("read %d %v", n, err)
	}
	if sz, err := a.Stat("d/f"); err != nil || sz != 4 {
		t.Fatalf("stat %d %v", sz, err)
	}
	if err := a.Rename("d/f", "d/g"); err != nil {
		t.Fatal(err)
	}
	ls, err := a.List("d")
	if err != nil || len(ls) != 1 || ls[0] != "g" {
		t.Fatalf("list %v %v", ls, err)
	}
	if err := a.Fsync("d/g"); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlink("d/g"); err != nil {
		t.Fatal(err)
	}
	if a.Now() <= 0 {
		t.Fatal("actor clock")
	}
	_ = core.OpNop
	_ = ipc.Credentials{}
}
