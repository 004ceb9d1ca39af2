// Command labstor-runtime starts a LabStor Runtime from a configuration
// file, mounts the LabStacks passed on the command line, and serves until
// interrupted — the in-process equivalent of the paper's Runtime daemon.
//
//	labstor-runtime -config runtime.yaml -stack fs.yaml -stack kv.yaml
//
// With -demo, the runtime additionally executes a short smoke workload
// against the first mounted stack and reports modeled latencies.
//
// The config's `observe:` section (or the -observe flag) starts the live
// observability server; the bound address is printed as
// "observe: serving on http://ADDR" so scripts can scrape ephemeral ports.
//
// The config's `serve:` section (or the -serve flag) starts the network
// serving front end; the bound address is printed as
// "serve: listening on ADDR". When `serve.shards` lists backend addresses
// the process routes instead of serving locally and prints
// "serve: routing on ADDR across N shards".
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	_ "labstor/internal/mods/allmods"
	"labstor/internal/obs"
	"labstor/internal/runtime"
	"labstor/internal/serve"
	"labstor/internal/spec"
)

type stackList []string

func (s *stackList) String() string { return fmt.Sprint(*s) }
func (s *stackList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	configPath := flag.String("config", "", "runtime configuration YAML")
	var stacks stackList
	flag.Var(&stacks, "stack", "LabStack spec file (repeatable)")
	demo := flag.Bool("demo", false, "run a short smoke workload and exit")
	observeAddr := flag.String("observe", "", "observability server address (overrides the config's observe.addr)")
	serveAddr := flag.String("serve", "", "network serving address (overrides the config's serve.addr)")
	flag.Parse()

	cfg := &spec.RuntimeConfig{Workers: 4, QueueDepth: 1024, UpgradePollMs: 5}
	if *configPath != "" {
		raw, err := os.ReadFile(*configPath)
		if err != nil {
			fatal("read config: %v", err)
		}
		cfg, err = spec.ParseRuntimeConfig(string(raw))
		if err != nil {
			fatal("parse config: %v", err)
		}
	}

	rt := runtime.New(runtime.FromConfig(cfg))
	for _, ds := range cfg.Devices {
		dev := device.New(ds.Name, ds.Class, ds.Capacity)
		rt.AddDevice(dev)
		fmt.Printf("device %-8s %-5s %6d MiB  %d stripes\n", ds.Name, ds.Class, ds.Capacity>>20, dev.Stripes())
	}
	rt.Start()
	defer rt.Shutdown()

	if *observeAddr != "" {
		cfg.Observe.Addr = *observeAddr
	}
	if srv, bound, err := obs.FromConfig(rt, cfg.Observe); err != nil {
		fatal("observe: %v", err)
	} else if srv != nil {
		defer srv.Close()
		fmt.Printf("observe: serving on http://%s\n", bound)
	}

	if *serveAddr != "" {
		cfg.Serve.Addr = *serveAddr
	}
	if cfg.Serve.Addr != "" {
		if len(cfg.Serve.Shards) > 0 {
			rtr := serve.NewRouter(cfg.Serve.Shards, cfg.Serve.Replicas, rt.Metrics())
			bound, err := rtr.ListenAndServe(cfg.Serve.Addr)
			if err != nil {
				fatal("serve: %v", err)
			}
			defer rtr.Close()
			fmt.Printf("serve: routing on %s across %d shards\n", bound, len(cfg.Serve.Shards))
		} else {
			scfg := serve.ConfigFromSpec(cfg.Serve)
			if err := scfg.WithPushdown(cfg.Pushdown); err != nil {
				fatal("pushdown: %v", err)
			}
			fe := serve.New(rt, scfg)
			bound, err := fe.ListenAndServe()
			if err != nil {
				fatal("serve: %v", err)
			}
			defer fe.Close()
			fmt.Printf("serve: listening on %s\n", bound)
			if scfg.Pushdown != nil {
				fmt.Printf("pushdown: %d programs registered\n", len(scfg.Pushdown.Registry().Programs()))
			}
		}
	}

	var firstMount string
	for _, path := range stacks {
		raw, err := os.ReadFile(path)
		if err != nil {
			fatal("read stack %s: %v", path, err)
		}
		s, err := rt.MountSpec(string(raw))
		if err != nil {
			fatal("mount %s: %v", path, err)
		}
		if firstMount == "" {
			firstMount = s.Mount
		}
		fmt.Printf("mounted %-20s (%d LabMods, %s exec)\n", s.Mount, s.Len(), s.Rules.ExecMode)
	}

	if *demo {
		if firstMount == "" {
			fatal("-demo requires at least one -stack")
		}
		runDemo(rt, firstMount)
		return
	}

	fmt.Println("runtime serving; Ctrl-C to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nworker statistics:")
	for _, ws := range rt.Stats() {
		fmt.Printf("  worker %d: active=%v processed=%d busy=%v\n", ws.ID, ws.Active, ws.Processed, ws.BusyVirt)
	}
}

func runDemo(rt *runtime.Runtime, mount string) {
	cli := rt.Connect(ipc.Credentials{PID: os.Getpid(), UID: 1000, GID: 1000})
	payload := []byte("labstor runtime demo payload")
	start := time.Now()
	for i := 0; i < 100; i++ {
		req := core.NewRequest(core.OpWrite)
		req.Path = fmt.Sprintf("demo-%02d.txt", i)
		req.Flags = core.FlagCreate
		req.Size = len(payload)
		req.Data = payload
		if err := cli.Submit(mount, req); err != nil || req.Err != nil {
			fatal("demo write: %v / %v", err, req.Err)
		}
	}
	req := core.NewRequest(core.OpRead)
	req.Path = "demo-00.txt"
	req.Size = len(payload)
	req.Data = make([]byte, len(payload))
	if err := cli.Submit(mount, req); err != nil || req.Err != nil {
		fatal("demo read: %v / %v", err, req.Err)
	}
	fmt.Printf("demo: wrote 100 files + read back %q\n", string(req.Data[:req.Result]))
	fmt.Printf("demo: modeled read latency %v, wall time %v\n", req.Latency(), time.Since(start).Round(time.Millisecond))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
