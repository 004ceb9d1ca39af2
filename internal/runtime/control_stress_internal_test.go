package runtime

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/ipc"
	"labstor/internal/mods/dummy"
)

// checkOwnership fails the test unless every registered queue is assigned
// to exactly one worker and that worker is active. It holds ctl, so it
// sees the runtime between two control decisions.
func checkOwnership(t *testing.T, rt *Runtime, after string) {
	t.Helper()
	rt.ctl.Lock()
	defer rt.ctl.Unlock()
	owners := make(map[*QP][]*Worker)
	for _, w := range rt.workers {
		for _, q := range w.assigned() {
			owners[q] = append(owners[q], w)
		}
	}
	for _, q := range rt.orch.Queues() {
		if ws := owners[q]; len(ws) != 1 || !ws[0].isActive() {
			t.Errorf("after %s: queue %d has %d owners (want one active worker)", after, q.ID, len(ws))
		}
	}
}

// TestControlPlaneStress runs every kind of control call at once — clients
// connecting, submitting to an async and a sync stack that share a module,
// and disconnecting, centralized and decentralized live upgrades of that
// module, rebalances (on demand and every millisecond) and stack edits —
// and checks the control plane's invariants: after each call returns every
// registered queue has exactly one active owner; at the end no queue has a
// request in flight and the upgraded module counted every request on both
// paths (an upgrade that swapped under a walker, or forked the module's
// state, would lose counts). check.sh runs it under -race at -cpu 1,2,8.
func TestControlPlaneStress(t *testing.T) {
	for _, policy := range []string{"round_robin", "dynamic"} {
		t.Run(policy, func(t *testing.T) { controlPlaneStress(t, policy) })
	}
}

func controlPlaneStress(t *testing.T, policy string) {
	const clients, rounds, perRound = 4, 10, 20
	rt := New(Options{MaxWorkers: 4, QueueDepth: 64, Policy: policy, RebalanceEvery: time.Millisecond,
		PerfSampleEvery: PerfSamplingDisabled})
	var stacks []*core.Stack
	for _, mode := range execModes {
		s, err := rt.Mount(core.NewStack("msg::/"+mode.String(), core.Rules{ExecMode: mode}, []core.Vertex{{UUID: "dum", Type: dummy.Type}}))
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, s)
	}
	rt.Start()
	defer rt.Shutdown()

	var (
		mu        sync.Mutex
		qps       []*QP
		sent      atomic.Int64
		clientsWG sync.WaitGroup
		controlWG sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		clientsWG.Add(1)
		go func(c int) {
			defer clientsWG.Done()
			for r := 0; r < rounds; r++ {
				cli := rt.Connect(ipc.Credentials{PID: 1 + c})
				checkOwnership(t, rt, "Connect")
				mu.Lock()
				qps = append(qps, cli.QueuePair())
				mu.Unlock()
				for i := 0; i < perRound; i++ {
					if err := cli.SubmitStack(stacks[i%len(stacks)], core.NewRequest(core.OpMessage)); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					sent.Add(1)
				}
				cli.Disconnect()
				checkOwnership(t, rt, "Disconnect")
			}
		}(c)
	}

	// The control callers run until the clients are done, each at least once.
	done := make(chan struct{})
	control := func(name string, call func() error) {
		defer controlWG.Done()
		for {
			if err := call(); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			checkOwnership(t, rt, name)
			select {
			case <-done:
				return
			default:
			}
		}
	}
	controlWG.Add(3)
	upgrades := 0
	go control("Upgrade", func() error {
		upgrades++
		mode := []UpgradeMode{Centralized, Decentralized}[upgrades%2]
		return rt.Upgrade(&UpgradeRequest{UUID: "dum", Build: func() core.Module { return &dummy.Dummy{} }, Mode: mode})
	})
	go control("Rebalance", func() error { rt.Orchestrator().Rebalance(); return nil })
	go control("ModifyStack", func() error {
		if err := rt.ModifyStack("msg::/async", "dum", &core.Vertex{UUID: "probe", Type: dummy.Type}, ""); err != nil {
			return err
		}
		return rt.ModifyStack("msg::/async", "", nil, "probe")
	})
	clientsWG.Wait()
	close(done)
	controlWG.Wait()

	for _, q := range qps {
		if n := q.Inflight(); n != 0 {
			t.Errorf("queue %d: %d requests in flight at quiescence", q.ID, n)
		}
	}
	m, err := rt.Registry.Get("dum")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.(*dummy.Dummy).Messages(), sent.Load(); got != want {
		t.Fatalf("module counted %d requests across %d upgrades, %d were sent", got, rt.UpgradeStats().Done, want)
	}
}

// tagType is a pass-through module that appends its UUID to req.Names, so
// a finished request shows the path it walked.
const tagType = "test.tag_pass"

type tagMod struct{ core.Base }

func init() { core.RegisterType(tagType, func() core.Module { return &tagMod{} }) }

func (m *tagMod) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: tagType, Version: "1.0", Consumes: core.APIAny, Produces: core.APIAny}
}

func (m *tagMod) Process(e *core.Exec, req *core.Request) error {
	req.Names = append(req.Names, m.Cfg.UUID)
	if e.HasNext(req) {
		return e.Next(req)
	}
	return nil
}

// TestWalkersPinTheirPlan runs walkers on an async and a sync stack while
// ModifyStack inserts and removes an entry vertex and a middle vertex of
// each, and upgrades swap the tail modules. Every request must finish
// without error on one whole version of its stack's DAG — the plan it
// pinned at submission — even when the vertex it is in is removed under
// it, which ModifyStack does not wait for.
// check.sh runs it under -race at -cpu 1,2,8.
func TestWalkersPinTheirPlan(t *testing.T) {
	const walkersPerStack, edits = 2, 40
	rt := New(Options{MaxWorkers: 2, QueueDepth: 64, PerfSampleEvery: PerfSamplingDisabled})
	modes := map[string]core.ExecMode{"a": core.ExecAsync, "s": core.ExecSync}
	stacks := map[string]*core.Stack{}
	for name, mode := range modes {
		st, err := rt.Mount(core.NewStack("msg::/"+name, core.Rules{ExecMode: mode}, []core.Vertex{
			{UUID: name + ".head", Type: tagType, Outputs: []string{name + ".tail"}},
			{UUID: name + ".tail", Type: tagType},
		}))
		if err != nil {
			t.Fatal(err)
		}
		stacks[name] = st
	}
	rt.Start()
	defer rt.Shutdown()

	done := make(chan struct{})
	var walkers, connected sync.WaitGroup
	walked := map[string]*atomic.Int64{"a": {}, "s": {}}
	pid := 0
	for name, st := range stacks {
		// The paths of the four versions of the stack's DAG.
		valid := map[string]bool{}
		for _, front := range []string{"", name + ".front,"} {
			for _, mid := range []string{"", name + ".mid,"} {
				valid[front+name+".head,"+mid+name+".tail"] = true
			}
		}
		for w := 0; w < walkersPerStack; w++ {
			pid++
			walkers.Add(1)
			connected.Add(1)
			go func(name string, st *core.Stack, valid map[string]bool, pid int) {
				defer walkers.Done()
				cli := rt.Connect(ipc.Credentials{PID: pid})
				defer cli.Disconnect()
				connected.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					req := core.NewRequest(core.OpMessage)
					if err := cli.SubmitStack(st, req); err != nil {
						t.Errorf("stack %s: %v", name, err)
						return
					}
					if path := strings.Join(req.Names, ","); !valid[path] {
						t.Errorf("stack %s: request walked %s, which no version of the DAG has", name, path)
						return
					}
					walked[name].Add(1)
				}
			}(name, st, valid, pid)
		}
	}

	// Connect takes ctl, which the edits hold one after another: the edits
	// start once every walker is connected, so the walkers walk while
	// they run.
	connected.Wait()
	var control sync.WaitGroup
	for name := range stacks {
		control.Add(1)
		go func(name string) {
			defer control.Done()
			mount := "msg::/" + name
			front := &core.Vertex{UUID: name + ".front", Type: tagType}
			mid := &core.Vertex{UUID: name + ".mid", Type: tagType}
			for i := 0; i < edits; i++ {
				for _, edit := range []func() error{
					func() error { return rt.ModifyStack(mount, name+".head", mid, "") },
					func() error { return rt.ModifyStack(mount, "", front, "") },
					func() error { return rt.ModifyStack(mount, "", nil, name+".mid") },
					func() error { return rt.ModifyStack(mount, "", nil, name+".front") },
				} {
					if err := edit(); err != nil {
						t.Errorf("ModifyStack %s: %v", mount, err)
						return
					}
				}
				if i%10 == 0 {
					if err := rt.Upgrade(&UpgradeRequest{
						UUID: name + ".tail", Build: func() core.Module { return &tagMod{} },
					}); err != nil {
						t.Errorf("Upgrade %s.tail: %v", name, err)
						return
					}
				}
			}
		}(name)
	}
	control.Wait()
	close(done)
	walkers.Wait()
	for name, n := range walked {
		if n.Load() == 0 {
			t.Errorf("stack %s: no request finished during the edits", name)
		}
	}
}
