package runtime_test

import (
	"reflect"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
	"labstor/internal/spec"
)

func TestRoundRobinSpreadsQueues(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 4, Policy: "round_robin"})
	rt.AddDevice(device.New("dev0", device.NVMe, 16<<20))
	rt.Mount(core.NewStack("m::/d", core.Rules{}, []core.Vertex{{UUID: "d", Type: "labstor.dummy"}}))
	rt.Start()
	defer rt.Shutdown()
	clients := make([]*runtime.Client, 8)
	for i := range clients {
		clients[i] = rt.Connect(ipc.Credentials{PID: 10 + i})
	}
	if got := len(rt.Orchestrator().Queues()); got != 8 {
		t.Fatalf("queues %d", got)
	}
	// All workers stay active under round-robin.
	if rt.ActiveWorkers() != 4 {
		t.Fatalf("active %d", rt.ActiveWorkers())
	}
	// Traffic flows through every client's queue.
	for _, c := range clients {
		if err := c.Submit("m::/d", core.NewRequest(core.OpMessage)); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Orchestrator().Rebalances() < 8 {
		t.Fatal("connect must trigger rebalances")
	}
}

func TestQueueRetirementOnDisconnect(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 2})
	rt.AddDevice(device.New("dev0", device.NVMe, 16<<20))
	rt.Mount(core.NewStack("m::/d", core.Rules{}, []core.Vertex{{UUID: "d", Type: "labstor.dummy"}}))
	rt.Start()
	defer rt.Shutdown()
	cli := rt.Connect(ipc.Credentials{PID: 1})
	if len(rt.Orchestrator().Queues()) != 1 {
		t.Fatal("queue not registered")
	}
	cli.Disconnect()
	if len(rt.Orchestrator().Queues()) != 0 {
		t.Fatal("queue not retired")
	}
}

func TestDynamicDecommissionsIdleWorkers(t *testing.T) {
	rt := runtime.New(runtime.Options{
		MaxWorkers:     8,
		Policy:         "dynamic",
		RebalanceEvery: time.Millisecond,
	})
	rt.AddDevice(device.New("dev0", device.NVMe, 64<<20))
	rt.Mount(core.NewStack("m::/d", core.Rules{}, []core.Vertex{{UUID: "d", Type: "labstor.dummy"}}))
	rt.Start()
	defer rt.Shutdown()
	cli := rt.Connect(ipc.Credentials{PID: 1})
	// One trivial client: after observations settle, the dynamic policy
	// needs only one worker.
	for i := 0; i < 200; i++ {
		if err := cli.Submit("m::/d", core.NewRequest(core.OpMessage)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if rt.ActiveWorkers() <= 2 {
			return
		}
		cli.Submit("m::/d", core.NewRequest(core.OpMessage))
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("dynamic policy kept %d workers for a trivial load", rt.ActiveWorkers())
}

func TestDynamicSeparatesComputeFromLatency(t *testing.T) {
	rt := runtime.New(runtime.Options{
		MaxWorkers:     4,
		Policy:         "dynamic",
		RebalanceEvery: time.Millisecond,
	})
	rt.AddDevice(device.New("dev0", device.NVMe, 64<<20))
	// An expensive module (1ms per message) and a cheap one.
	rt.Mount(core.NewStack("m::/heavy", core.Rules{}, []core.Vertex{
		{UUID: "heavy", Type: "labstor.dummy", Attrs: map[string]string{"cost_ns": "1000000"}},
	}))
	rt.Mount(core.NewStack("m::/light", core.Rules{}, []core.Vertex{
		{UUID: "light", Type: "labstor.dummy", Attrs: map[string]string{"cost_ns": "500"}},
	}))
	rt.Start()
	defer rt.Shutdown()

	heavy := rt.Connect(ipc.Credentials{PID: 1})
	light := rt.Connect(ipc.Credentials{PID: 2})
	// Generate observations for the classifier.
	for i := 0; i < 50; i++ {
		if err := heavy.Submit("m::/heavy", core.NewRequest(core.OpMessage)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			if err := light.Submit("m::/light", core.NewRequest(core.OpMessage)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// After classification, the light client's queue must not share a
	// worker with the heavy client's queue.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		heavy.Submit("m::/heavy", core.NewRequest(core.OpMessage))
		light.Submit("m::/light", core.NewRequest(core.OpMessage))
		shared := false
		for _, w := range rt.Stats() {
			_ = w
		}
		// Inspect assignments through queue latency: a light message that
		// never waits behind a heavy one completes in ~us.
		req := core.NewRequest(core.OpMessage)
		if err := light.Submit("m::/light", req); err != nil {
			t.Fatal(err)
		}
		if req.Latency() < 100_000 { // < 0.1ms: separated
			return
		}
		_ = shared
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("dynamic policy never isolated the latency-sensitive queue")
}

// FromConfig maps every runtime key a config can set onto Options, and
// nothing else: no default of its own sneaks in.
func TestFromConfig(t *testing.T) {
	cfg, err := spec.ParseRuntimeConfig(`
runtime:
  workers: 6
  queue_depth: 512
  batch: 4
  max_repos_per_user: 3
  perf_sample_every: 16
orchestrator:
  policy: round_robin
  rebalance_ms: 7
observe:
  slo_check_ms: 40
slo:
  - stack: fs::/a
    p99_us: 250
    max_err_rate: 0.02
`)
	if err != nil {
		t.Fatal(err)
	}
	want := runtime.Options{
		MaxWorkers:      6,
		QueueDepth:      512,
		Batch:           4,
		Policy:          "round_robin",
		RebalanceEvery:  7 * time.Millisecond,
		MaxReposPerUser: 3,
		PerfSampleEvery: 16,
		SLOs:            []runtime.SLOTarget{{Stack: "fs::/a", P99US: 250, MaxErrRate: 0.02}},
		SLOCheckEvery:   40 * time.Millisecond,
	}
	if got := runtime.FromConfig(cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromConfig\n got %+v\nwant %+v", got, want)
	}
}
