// Command labctl inspects and validates LabStor artifacts — the developer
// face of the paper's mount/modify tooling. Run `labctl` with no arguments
// for the generated subcommand listing.
//
// Validation instantiates the stack's modules against placeholder devices,
// so attribute errors (missing devices, bad modes, unknown types) surface
// before deployment.
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/experiments"
	_ "labstor/internal/mods/allmods"
	"labstor/internal/spec"
)

// command is one labctl subcommand; the usage text is generated from this
// table so help never drifts from what main dispatches.
type command struct {
	name string
	args string
	desc string
	run  func(args []string)
}

var commands []command

func init() {
	commands = []command{
		{"types", "", "list registered LabMod types", cmdTypes},
		{"validate", "<stack.yaml>", "parse + instantiate + validate a LabStack", cmdValidate},
		{"show", "<stack.yaml>", "print the parsed DAG", cmdShow},
		{"config", "<runtime.yaml>", "parse + echo a runtime configuration", cmdConfig},
		{"stats", "[-json] <runtime.yaml> | -addr <host:port>", "probe a booted runtime (or scrape a live one) and dump the telemetry snapshot", cmdStats},
		{"top", "[-interval 1s] [-count N] <host:port>", "refreshing terminal view of a live runtime's /snapshot", cmdTop},
		{"profile", "[-json] <host:port>", "latency-attribution tables from a live runtime's /profile", cmdProfile},
		{"serve", "-addr <host:port> [-tenant t] <ping|msg|put|get|del|has> [mount] [key] [value]", "one-shot RPC against a live serving front end", cmdServe},
		{"scan", "-addr <host:port> [-tenant t] <mount> <program> [prefix|path]", "run a pushdown scan (filter/aggregate program) against a live front end", cmdScan},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	for _, c := range commands {
		if c.name == os.Args[1] {
			c.run(os.Args[2:])
			return
		}
	}
	usage()
}

func cmdTypes(_ []string) {
	types := core.Types()
	sort.Strings(types)
	for _, t := range types {
		fmt.Println(t)
	}
}

func cmdValidate(args []string) {
	ss := loadStack("validate", args)
	if err := validate(ss); err != nil {
		fatal("validate: %v", err)
	}
	fmt.Printf("%s: OK (%d LabMods, %s exec)\n", ss.Mount, len(ss.Vertices), ss.Rules.ExecMode)
}

func cmdShow(args []string) {
	show(loadStack("show", args))
}

func cmdConfig(args []string) {
	if len(args) < 1 {
		usageFor("config")
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		fatal("%v", err)
	}
	cfg, err := spec.ParseRuntimeConfig(string(raw))
	if err != nil {
		fatal("parse: %v", err)
	}
	fmt.Printf("workers: %d\nqueue_depth: %d\nbatch: %d\npolicy: %s\nrebalance_ms: %d\n",
		cfg.Workers, cfg.QueueDepth, cfg.Batch, cfg.Orchestrator.Policy, cfg.Orchestrator.RebalanceMs)
	if cfg.Observe.Addr != "" {
		fmt.Printf("observe: %s pprof=%v\n", cfg.Observe.Addr, cfg.Observe.Pprof)
	}
	if cfg.Serve.Addr != "" {
		if len(cfg.Serve.Shards) > 0 {
			fmt.Printf("serve: %s router shards=%v\n", cfg.Serve.Addr, cfg.Serve.Shards)
		} else {
			fmt.Printf("serve: %s batch=%d tenants=%d\n", cfg.Serve.Addr, cfg.Serve.Batch, len(cfg.Serve.Tenants))
		}
	}
	if len(cfg.Pushdown.Programs) > 0 || len(cfg.Pushdown.Allow) > 0 {
		fmt.Printf("pushdown: programs=%d allow=%v max_scan_mb=%d tenants=%d\n",
			len(cfg.Pushdown.Programs), cfg.Pushdown.Allow, cfg.Pushdown.MaxScanMB, len(cfg.Pushdown.Tenants))
	}
	for _, s := range cfg.SLOs {
		fmt.Printf("slo: %s p99_us=%g max_err_rate=%g\n", s.Stack, s.P99Us, s.MaxErrRate)
	}
	for _, d := range cfg.Devices {
		fmt.Printf("device: %s class=%s capacity=%dMiB\n", d.Name, d.Class, d.Capacity>>20)
	}
}

func loadStack(cmd string, args []string) *spec.StackSpec {
	if len(args) < 1 {
		usageFor(cmd)
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		fatal("%v", err)
	}
	ss, err := spec.ParseStack(string(raw))
	if err != nil {
		fatal("parse: %v", err)
	}
	return ss
}

func show(ss *spec.StackSpec) {
	fmt.Printf("mount: %s\nexec: %s  priority: %d\n", ss.Mount, ss.Rules.ExecMode, ss.Rules.Priority)
	for i, v := range ss.Vertices {
		arrow := "└─"
		if i == 0 {
			arrow = "┌─"
		} else if i < len(ss.Vertices)-1 {
			arrow = "├─"
		}
		attrs := make([]string, 0, len(v.Attrs))
		for k, val := range v.Attrs {
			attrs = append(attrs, k+"="+val)
		}
		sort.Strings(attrs)
		fmt.Printf("%s %-12s %-26s %s -> %s\n", arrow, v.UUID, v.Type, strings.Join(attrs, ","), strings.Join(v.Outputs, ","))
	}
}

// validate instantiates the stack over placeholder devices: every device
// attribute referenced by a vertex is materialized as a small NVMe sim.
func validate(ss *spec.StackSpec) error {
	env := core.NewEnv(nil)
	for _, v := range ss.Vertices {
		if name, ok := v.Attrs["device"]; ok && name != "" {
			if _, err := env.Device(name); err != nil {
				// PMEM placeholders satisfy every driver, including DAX (byte-addressable).
				env.AddDevice(device.New(name, device.PMEM, 256<<20))
			}
		}
	}
	reg := core.NewRegistry()
	for _, v := range ss.Vertices {
		if _, err := reg.Instantiate(v.UUID, v.Type, core.Config{Attrs: v.Attrs}, env); err != nil {
			return err
		}
	}
	return ss.Stack().Validate(reg)
}

// cmdStats boots a Runtime from a configuration and probes it, or — with
// -addr — scrapes a live runtime's /snapshot endpoint instead.
func cmdStats(args []string) {
	asJSON := false
	var path, addr string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "-json", "--json":
			asJSON = true
		case "-addr", "--addr":
			i++
			if i >= len(args) {
				usageFor("stats")
			}
			addr = args[i]
		default:
			path = a
		}
	}
	if addr != "" {
		snap, err := fetchSnapshot(addr)
		if err != nil {
			fatal("stats: %v", err)
		}
		printSnapshot(snap, asJSON)
		return
	}
	if path == "" {
		usageFor("stats")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal("stats: cannot read runtime config %q: %v", path, err)
	}
	cfg, err := spec.ParseRuntimeConfig(string(raw))
	if err != nil {
		fatal("stats: parse %q: %v", path, err)
	}
	snap, err := experiments.TelemetryProbe(cfg, 0)
	if err != nil {
		fatal("stats: %v", err)
	}
	printSnapshot(snap, asJSON)
}

// usageFor prints one command's usage line — bad arguments to a known
// command should not bury the answer in the full table.
func usageFor(name string) {
	for _, c := range commands {
		if c.name == name {
			fmt.Fprintf(os.Stderr, "usage: labctl %s\n", strings.TrimSpace(c.name+" "+c.args))
			os.Exit(2)
		}
	}
	usage()
}

func usage() {
	var b strings.Builder
	b.WriteString("usage: labctl <command> [arguments]\n\ncommands:\n")
	width := 0
	for _, c := range commands {
		if n := len(c.name + " " + c.args); n > width {
			width = n
		}
	}
	for _, c := range commands {
		fmt.Fprintf(&b, "  %-*s  %s\n", width, strings.TrimSpace(c.name+" "+c.args), c.desc)
	}
	fmt.Fprint(os.Stderr, b.String())
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
