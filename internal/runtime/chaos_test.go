package runtime_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/mods/iosched"
	"labstor/internal/runtime"
)

// TestChaosMixedLoadWithUpgradesAndCrash drives a filesystem with
// concurrent clients, half through an async stack and half through a
// sync-mode stack over the same LabMods, while the test live-upgrades the
// scheduler (centralized, then decentralized), inserts and removes a
// pass-through vertex, crashes and restarts the Runtime — then verifies
// every file's content survived intact.
func TestChaosMixedLoadWithUpgradesAndCrash(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 4, QueueDepth: 4096})
	rt.AddDevice(device.New("dev0", device.NVMe, 512<<20))
	if _, err := rt.MountSpec(`
mount: fs::/chaos
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
	async, _ := rt.Namespace.Lookup("fs::/chaos")
	if _, err := rt.Mount(core.NewStack("fs::/chaos_sync", core.Rules{ExecMode: core.ExecSync}, async.Vertices())); err != nil {
		t.Fatal(err)
	}
	mounts := []string{"fs::/chaos", "fs::/chaos_sync"}
	rt.Start()
	defer rt.Shutdown()

	const clients = 4
	const filesPerClient = 40
	var wg sync.WaitGroup
	errs := make([]error, clients)
	content := make([]map[string][]byte, clients)

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli := rt.Connect(ipc.Credentials{PID: 100 + c, UID: 1000, GID: 1000})
			cli.RestartPatience = 10 * time.Second
			mount := mounts[c%len(mounts)]
			rng := rand.New(rand.NewSource(int64(c)))
			mine := make(map[string][]byte, filesPerClient)
			content[c] = mine
			for i := 0; i < filesPerClient; i++ {
				path := fmt.Sprintf("c%d/f%02d", c, i)
				data := make([]byte, 512+rng.Intn(12000))
				rng.Read(data)
				// Write + fsync, retrying if the crash replay dropped an
				// op that straddled the crash window (fsync reports it).
				durable := false
				for attempt := 0; attempt < 5 && !durable; attempt++ {
					req := core.NewRequest(core.OpWrite)
					req.Path = path
					req.Flags = core.FlagCreate
					req.Size = len(data)
					req.Data = data
					if err := cli.Submit(mount, req); err != nil || req.Err != nil {
						if err == nil {
							err = req.Err
						}
						errs[c] = fmt.Errorf("write %s: %w", path, err)
						return
					}
					fy := core.NewRequest(core.OpFsync)
					fy.Path = path
					// A failed fsync (e.g. ENOENT after a crash replay
					// dropped the create) means "not durable — redo".
					_ = cli.Submit(mount, fy)
					durable = fy.Err == nil
				}
				if !durable {
					errs[c] = fmt.Errorf("%s never became durable", path)
					return
				}
				mine[path] = data
				// Read back something we already wrote.
				if i > 0 && rng.Intn(2) == 0 {
					prev := fmt.Sprintf("c%d/f%02d", c, rng.Intn(i))
					rr := core.NewRequest(core.OpRead)
					rr.Path = prev
					rr.Size = len(mine[prev])
					rr.Data = make([]byte, len(mine[prev]))
					if err := cli.Submit(mount, rr); err != nil || rr.Err != nil {
						errs[c] = fmt.Errorf("read %s: %v/%v", prev, err, rr.Err)
						return
					}
					if !bytes.Equal(rr.Data[:rr.Result], mine[prev]) {
						errs[c] = fmt.Errorf("mid-run corruption in %s", prev)
						return
					}
				}
			}
		}(c)
	}

	// Chaos driver: upgrades, stack edits, a crash.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		time.Sleep(time.Millisecond)
		// Live-upgrade the scheduler twice, in both protocols.
		for _, mode := range []runtime.UpgradeMode{runtime.Centralized, runtime.Decentralized} {
			if err := rt.Upgrade(&runtime.UpgradeRequest{
				UUID:  "sched",
				Build: func() core.Module { return &iosched.NoOp{} },
				Mode:  mode,
			}); err != nil {
				t.Errorf("upgrade: %v", err)
			}
		}
		// Insert, then remove, a pass-through vertex while traffic flows.
		// (A data-transforming vertex like compression may only be inserted
		// over data written through it — adding one over existing raw data
		// is semantically invalid, which the compressmod tests cover.)
		if err := rt.ModifyStack("fs::/chaos", "fs", &core.Vertex{
			UUID: "probe", Type: "labstor.dummy",
		}, ""); err != nil {
			t.Errorf("insert: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
		if err := rt.ModifyStack("fs::/chaos", "", nil, "probe"); err != nil {
			t.Errorf("remove: %v", err)
		}

		// Crash and restart.
		rt.Crash()
		time.Sleep(3 * time.Millisecond)
		if err := rt.Restart(); err != nil {
			t.Errorf("restart: %v", err)
		}
	}()

	wg.Wait()
	<-chaosDone
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// Full integrity pass over every file from a fresh client.
	verify := rt.Connect(ipc.Credentials{PID: 999, UID: 1000, GID: 1000})
	for c := 0; c < clients; c++ {
		for path, want := range content[c] {
			rr := core.NewRequest(core.OpRead)
			rr.Path = path
			rr.Size = len(want)
			rr.Data = make([]byte, len(want))
			if err := verify.Submit("fs::/chaos", rr); err != nil || rr.Err != nil {
				t.Fatalf("verify %s: %v/%v", path, err, rr.Err)
			}
			if !bytes.Equal(rr.Data[:rr.Result], want) {
				t.Fatalf("post-chaos corruption in %s", path)
			}
		}
	}
}
