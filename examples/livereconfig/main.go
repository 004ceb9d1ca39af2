// Live reconfiguration example: the paper's "dynamic semantics imposition"
// and live-upgrade story in one program.
//
//  1. An application streams writes through a LabStack.
//  2. A compression LabMod is *inserted into the running stack* — following
//     requests are transparently compressed.
//  3. The I/O scheduler is *hot-swapped* (NoOp -> blk-switch) via the
//     Module Manager's centralized live-upgrade protocol, without stopping
//     the stream.
//  4. The Runtime is crashed and restarted; the app's in-flight request
//     blocks in Wait, StateRepair runs, and the stream continues.
package main

import (
	"fmt"
	"log"

	"labstor"
	"labstor/internal/core"
	"labstor/internal/mods/iosched"
	"labstor/internal/runtime"
)

const stackSpec = `
mount: fs::/stream
mods:
  - uuid: fs
    type: labstor.labfs
    attrs:
      device: nvme0
      log_mb: 8
  - uuid: sched
    type: labstor.noop
    attrs:
      device: nvme0
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`

func main() {
	p := labstor.NewPlatform(labstor.Config{Workers: 2})
	defer p.Close()
	p.AddDevice("nvme0", labstor.NVMe, 256<<20)
	if _, err := p.MountSpec(stackSpec); err != nil {
		log.Fatalf("mount: %v", err)
	}
	rt := p.Runtime()
	sess := p.Connect()

	writeChunk := func(i int) {
		f, err := sess.Create(fmt.Sprintf("fs::/stream/chunk-%03d", i))
		if err != nil {
			log.Fatalf("create: %v", err)
		}
		data := make([]byte, 16<<10) // low-entropy, compressible
		for j := range data {
			data[j] = byte(j % 7)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			log.Fatalf("write: %v", err)
		}
		// Sync each chunk: a crashed Runtime replays LabFS from its
		// on-device metadata log, so unsynced creates would (correctly)
		// vanish in phase 4.
		if err := f.Sync(); err != nil {
			log.Fatalf("sync: %v", err)
		}
	}

	for i := 0; i < 10; i++ {
		writeChunk(i)
	}
	fmt.Println("phase 1: 10 chunks written through the plain stack")

	// Phase 2: insert a compression LabMod after the filesystem, live.
	err := rt.ModifyStack("fs::/stream", "fs", &core.Vertex{
		UUID: "zip", Type: "labstor.compress", Attrs: map[string]string{"level": "1"},
	}, "")
	if err != nil {
		log.Fatalf("modify_stack: %v", err)
	}
	for i := 10; i < 20; i++ {
		writeChunk(i)
	}
	stack, _ := rt.Namespace.Lookup("fs::/stream")
	fmt.Printf("phase 2: compression inserted live; stack is now %d mods deep\n", stack.Len())

	// Phase 3: hot-swap the I/O scheduler via the live-upgrade protocol.
	gen := rt.Registry.Generation("sched")
	if err := rt.Upgrade(&runtime.UpgradeRequest{
		UUID:  "sched",
		Build: func() core.Module { return &iosched.BlkSwitch{} },
		Mode:  runtime.Centralized,
	}); err != nil {
		log.Fatalf("upgrade: %v", err)
	}
	for i := 20; i < 30; i++ {
		writeChunk(i)
	}
	fmt.Printf("phase 3: scheduler hot-swapped (registry generation %d -> %d)\n",
		gen, rt.Registry.Generation("sched"))

	// Phase 4: crash the Runtime mid-stream and recover.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 30; i < 40; i++ {
			writeChunk(i)
		}
	}()
	rt.Crash()
	fmt.Println("phase 4: runtime crashed; application is blocked in Wait ...")
	if err := rt.Restart(); err != nil {
		log.Fatalf("restart: %v", err)
	}
	<-done
	fmt.Println("phase 4: runtime restarted, StateRepair ran, stream completed")

	// Verify everything is readable.
	names, _ := sess.ReadDir("fs::/stream")
	var total int64
	for _, n := range names {
		sz, err := sess.Stat("fs::/stream/" + n)
		if err != nil {
			log.Fatalf("stat %s: %v", n, err)
		}
		total += sz
	}
	fmt.Printf("verified %d chunks, %d KiB logical data intact\n", len(names), total>>10)
}
