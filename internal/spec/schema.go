package spec

import (
	"fmt"
	"math"
	"strings"

	"labstor/internal/core"
	"labstor/internal/device"
)

// StackSpec is the parsed form of a LabStack specification file:
//
//	mount: fs::/b
//	rules:
//	  exec_mode: async      # async | sync
//	  priority: 1
//	  max_depth: 16
//	  owners: [1000]
//	mods:
//	  - uuid: genfs1
//	    type: labstor.genericfs
//	    outputs: [labfs1]
//	  - uuid: labfs1
//	    type: labstor.labfs
//	    attrs:
//	      device: nvme0
//	    outputs: [lru1]
//	  ...
type StackSpec struct {
	Mount    string
	Rules    core.Rules
	Vertices []core.Vertex
}

// ParseStack parses a LabStack spec document.
func ParseStack(src string) (*StackSpec, error) {
	root, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return StackFromNode(root)
}

// StackFromNode converts a parsed document into a StackSpec.
func StackFromNode(root *Node) (*StackSpec, error) {
	s := &StackSpec{}
	s.Mount = root.Str("mount", "")
	if s.Mount == "" {
		return nil, fmt.Errorf("spec: stack is missing 'mount'")
	}
	rules := root.Get("rules")
	if rules != nil {
		switch strings.ToLower(rules.Str("exec_mode", "async")) {
		case "sync", "synchronous":
			s.Rules.ExecMode = core.ExecSync
		case "async", "asynchronous", "":
			s.Rules.ExecMode = core.ExecAsync
		default:
			return nil, fmt.Errorf("spec: unknown exec_mode %q", rules.Str("exec_mode", ""))
		}
		s.Rules.Priority = rules.Int("priority", 0)
		s.Rules.MaxDepth = rules.Int("max_depth", 0)
		for _, o := range rules.Strings("owners") {
			var uid int
			if _, err := fmt.Sscanf(o, "%d", &uid); err == nil {
				s.Rules.Owners = append(s.Rules.Owners, uid)
			}
		}
	}
	mods := root.Get("mods")
	if mods == nil || !mods.IsList() {
		return nil, fmt.Errorf("spec: stack %q has no 'mods' sequence", s.Mount)
	}
	seen := make(map[string]bool)
	for i, mn := range mods.List() {
		if !mn.IsMap() {
			return nil, fmt.Errorf("spec: mods[%d] is not a mapping", i)
		}
		v := core.Vertex{
			UUID:    mn.Str("uuid", ""),
			Type:    mn.Str("type", ""),
			Attrs:   mn.StringMap("attrs"),
			Outputs: mn.Strings("outputs"),
		}
		if v.UUID == "" {
			return nil, fmt.Errorf("spec: mods[%d] is missing 'uuid'", i)
		}
		if v.Type == "" {
			return nil, fmt.Errorf("spec: mod %q is missing 'type'", v.UUID)
		}
		if seen[v.UUID] {
			return nil, fmt.Errorf("spec: duplicate mod uuid %q", v.UUID)
		}
		seen[v.UUID] = true
		s.Vertices = append(s.Vertices, v)
	}
	// Default chain wiring: a vertex with no outputs forwards to the next
	// vertex in the list (the common linear-stack shorthand), except the
	// last.
	for i := range s.Vertices {
		if len(s.Vertices[i].Outputs) == 0 && i+1 < len(s.Vertices) {
			s.Vertices[i].Outputs = []string{s.Vertices[i+1].UUID}
		}
	}
	return s, nil
}

// Stack materializes the spec into a core.Stack (not yet mounted).
func (s *StackSpec) Stack() *core.Stack {
	return core.NewStack(s.Mount, s.Rules, s.Vertices)
}

// DeviceSpec describes one simulated device in a runtime config.
type DeviceSpec struct {
	Name     string
	Class    device.Class
	Capacity int64
}

// OrchestratorSpec configures the Work Orchestrator.
type OrchestratorSpec struct {
	Policy          string // "round_robin" | "dynamic"
	RebalanceMs     int    // epoch length
	LatencyCutoffUs int    // EstProcessingTime cutoff for LQ vs CQ
	LossThreshold   float64
}

// ObserveSpec configures the live observability plane (the HTTP
// metrics/debug server, flight recorder and SLO watchdog cadence):
//
//	observe:
//	  addr: 127.0.0.1:9120    # empty = server disabled
//	  pprof: true
//	  slo_check_ms: 100
//	  bundle_dir: /tmp/labstor-bundles   # empty = no incident bundles
//	  bundle_profile_ms: 250
//	  bundle_cooldown_ms: 60000
//	  bundle_max: 16
type ObserveSpec struct {
	// Addr is the listen address for the metrics/debug HTTP server
	// ("" disables it; host:0 binds an ephemeral port).
	Addr string
	// Pprof exposes net/http/pprof under /debug/pprof/ (default true when
	// the server is enabled).
	Pprof bool
	// SLOCheckMs is the SLO watchdog evaluation period (0 = default 100ms).
	SLOCheckMs int
	// BundleDir, when set, arms incident capture: every SLO breach
	// transition writes a diagnostic bundle directory under it.
	BundleDir string
	// BundleProfileMs is how long the bundle's CPU profile runs
	// (0 = default 250ms).
	BundleProfileMs int
	// BundleCooldownMs rate-limits capture per stack (0 = default 60s).
	BundleCooldownMs int
	// BundleMax caps the number of bundles written per runtime lifetime
	// (0 = default 16).
	BundleMax int
}

// TenantSpec is one tenant's admission-control policy in a serve: block.
type TenantSpec struct {
	Name string
	// RatePerSec is the token-bucket refill rate (0 = unlimited).
	RatePerSec float64
	// Burst is the bucket depth (0 = max(rate/10, 32)).
	Burst float64
	// Inflight caps the tenant's concurrently admitted requests (0 = the
	// server default budget).
	Inflight int
}

// ServeSpec configures the network serving front end (and, when shards are
// listed, the consistent-hash routing proxy):
//
//	serve:
//	  addr: 127.0.0.1:7600     # empty = serving disabled
//	  batch: 32                # coalesced SubmitBatch window
//	  max_payload_mb: 4
//	  demand_poll_ms: 50       # orchestrator demand -> admission pressure
//	  default:
//	    inflight: 256
//	  tenants:
//	    - name: gold
//	      rate_per_sec: 50000
//	      burst: 1000
//	      inflight: 512
//	  shards: [127.0.0.1:7601, 127.0.0.1:7602]   # run as router over these
//	  replicas: 64             # ring virtual points per shard
type ServeSpec struct {
	// Addr is the TCP listen address ("" disables serving; host:0 binds an
	// ephemeral port).
	Addr string
	// Batch is the per-connection coalescing window (0 = default 32).
	Batch int
	// MaxPayloadMB bounds a single frame's payload (0 = default 4 MiB).
	MaxPayloadMB int
	// DemandPollMs is the orchestrator-demand poll period feeding admission
	// pressure (0 = default 50ms, negative disables the feed).
	DemandPollMs int
	// Default is the policy for tenants without an explicit entry.
	Default TenantSpec
	// Tenants lists per-tenant policies.
	Tenants []TenantSpec
	// Shards, when non-empty, runs this process as a shard router proxying
	// to the listed backend serve addresses instead of serving locally.
	Shards []string
	// Replicas is the ring's virtual-point count per shard (0 = default 64).
	Replicas int
}

// PushdownTenantSpec is one tenant's pushdown permissions in a pushdown:
// block.
type PushdownTenantSpec struct {
	Name string
	// Allow lists program names/refs this tenant may run ("*" = all,
	// trailing "*" = prefix match). Empty means the tenant runs nothing.
	Allow []string
	// MaxScanMB / MaxSteps tighten the per-request budgets for this
	// tenant (0 = the block defaults).
	MaxScanMB int
	MaxSteps  int64
}

// PushdownSpec configures the computation-pushdown program registry and
// its safety policy:
//
//	pushdown:
//	  max_scan_mb: 64          # per-request byte budget cap
//	  max_steps: 1000000       # per-request evaluation step cap
//	  allow: ["*"]             # default allow-list (empty = deny all)
//	  programs:
//	    hot_errors: 'filter where substr "err"'
//	    row_count: 'count'
//	  tenants:
//	    - name: analytics
//	      allow: [row_count]
//	      max_scan_mb: 16
type PushdownSpec struct {
	// Programs maps registration names to mini-language sources.
	Programs map[string]string
	// Allow is the default allow-list applied to tenants without an
	// explicit entry (empty = deny all — secure default).
	Allow []string
	// MaxScanMB caps bytes scanned per request (0 = evaluator default).
	MaxScanMB int
	// MaxSteps caps evaluation steps per request (0 = evaluator default).
	MaxSteps int64
	// Tenants lists per-tenant allow-lists and budget overrides.
	Tenants []PushdownTenantSpec
}

// SLOSpec is one per-stack service-level objective:
//
//	slo:
//	  - stack: fs::/probe
//	    p99_us: 500
//	    max_err_rate: 0.01
type SLOSpec struct {
	Stack      string
	P99Us      float64
	MaxErrRate float64
}

// RuntimeConfig is the parsed Runtime configuration YAML:
//
//	runtime:
//	  workers: 4
//	  queue_depth: 1024
//	  upgrade_poll_ms: 5
//	orchestrator:
//	  policy: dynamic
//	  rebalance_ms: 10
//	devices:
//	  - name: nvme0
//	    class: nvme
//	    capacity_mb: 4096
//	repos:
//	  - mods/core
type RuntimeConfig struct {
	Workers         int
	QueueDepth      int
	UpgradePollMs   int
	MaxReposPerUser int
	// Batch is the worker drain width: up to Batch requests are taken from
	// a queue per scan with one vectored ring reservation (default 1).
	// Modeled virtual time is identical at any width.
	Batch int
	// PerfSampleEvery is the telemetry sampling period: one request in N is
	// traced (0 = runtime default of 64, negative disables sampling).
	PerfSampleEvery int
	Orchestrator    OrchestratorSpec
	Observe         ObserveSpec
	Serve           ServeSpec
	Pushdown        PushdownSpec
	SLOs            []SLOSpec
	Devices         []DeviceSpec
	Repos           []string
}

// DefaultRuntimeConfig returns the configuration used when a document omits
// a field (and the base for ParseRuntimeConfig).
func DefaultRuntimeConfig() *RuntimeConfig {
	return &RuntimeConfig{
		Workers:         4,
		QueueDepth:      1024,
		UpgradePollMs:   5,
		MaxReposPerUser: 8,
		Batch:           1,
		Orchestrator: OrchestratorSpec{
			Policy:          "dynamic",
			RebalanceMs:     10,
			LatencyCutoffUs: 100,
			LossThreshold:   0.1,
		},
		Observe: ObserveSpec{Pprof: true},
	}
}

// ParseRuntimeConfig parses a runtime configuration document.
func ParseRuntimeConfig(src string) (*RuntimeConfig, error) {
	root, err := Parse(src)
	if err != nil {
		return nil, err
	}
	cfg := DefaultRuntimeConfig()
	if rt := root.Get("runtime"); rt != nil {
		cfg.Workers = rt.Int("workers", cfg.Workers)
		cfg.QueueDepth = rt.Int("queue_depth", cfg.QueueDepth)
		cfg.UpgradePollMs = rt.Int("upgrade_poll_ms", cfg.UpgradePollMs)
		cfg.MaxReposPerUser = rt.Int("max_repos_per_user", cfg.MaxReposPerUser)
		cfg.Batch = rt.Int("batch", cfg.Batch)
		cfg.PerfSampleEvery = rt.Int("perf_sample_every", cfg.PerfSampleEvery)
	}
	if or := root.Get("orchestrator"); or != nil {
		cfg.Orchestrator.Policy = or.Str("policy", cfg.Orchestrator.Policy)
		cfg.Orchestrator.RebalanceMs = or.Int("rebalance_ms", cfg.Orchestrator.RebalanceMs)
		cfg.Orchestrator.LatencyCutoffUs = or.Int("latency_cutoff_us", cfg.Orchestrator.LatencyCutoffUs)
		cfg.Orchestrator.LossThreshold = or.Float("loss_threshold", cfg.Orchestrator.LossThreshold)
	}
	if ob := root.Get("observe"); ob != nil {
		cfg.Observe.Addr = ob.Str("addr", cfg.Observe.Addr)
		cfg.Observe.Pprof = ob.Bool("pprof", cfg.Observe.Pprof)
		cfg.Observe.SLOCheckMs = ob.Int("slo_check_ms", cfg.Observe.SLOCheckMs)
		cfg.Observe.BundleDir = ob.Str("bundle_dir", cfg.Observe.BundleDir)
		cfg.Observe.BundleProfileMs = ob.Int("bundle_profile_ms", cfg.Observe.BundleProfileMs)
		cfg.Observe.BundleCooldownMs = ob.Int("bundle_cooldown_ms", cfg.Observe.BundleCooldownMs)
		cfg.Observe.BundleMax = ob.Int("bundle_max", cfg.Observe.BundleMax)
	}
	if sv := root.Get("serve"); sv != nil {
		cfg.Serve.Addr = sv.Str("addr", cfg.Serve.Addr)
		cfg.Serve.Batch = sv.Int("batch", cfg.Serve.Batch)
		cfg.Serve.MaxPayloadMB = sv.Int("max_payload_mb", cfg.Serve.MaxPayloadMB)
		cfg.Serve.DemandPollMs = sv.Int("demand_poll_ms", cfg.Serve.DemandPollMs)
		parseTenant := func(n *Node, ts *TenantSpec) error {
			ts.Name = n.Str("name", ts.Name)
			ts.RatePerSec = n.Float("rate_per_sec", ts.RatePerSec)
			ts.Burst = n.Float("burst", ts.Burst)
			ts.Inflight = n.Int("inflight", ts.Inflight)
			if ts.RatePerSec < 0 || ts.Burst < 0 || ts.Inflight < 0 {
				return fmt.Errorf("spec: serve tenant %q has a negative limit", ts.Name)
			}
			return nil
		}
		if def := sv.Get("default"); def != nil {
			if err := parseTenant(def, &cfg.Serve.Default); err != nil {
				return nil, err
			}
		}
		if tns := sv.Get("tenants"); tns != nil && tns.IsList() {
			seen := make(map[string]bool)
			for i, tn := range tns.List() {
				var ts TenantSpec
				if err := parseTenant(tn, &ts); err != nil {
					return nil, err
				}
				if ts.Name == "" {
					return nil, fmt.Errorf("spec: serve.tenants[%d] is missing 'name'", i)
				}
				if seen[ts.Name] {
					return nil, fmt.Errorf("spec: duplicate serve tenant %q", ts.Name)
				}
				seen[ts.Name] = true
				cfg.Serve.Tenants = append(cfg.Serve.Tenants, ts)
			}
		}
		cfg.Serve.Shards = sv.Strings("shards")
		cfg.Serve.Replicas = sv.Int("replicas", cfg.Serve.Replicas)
		if len(cfg.Serve.Shards) > 0 && cfg.Serve.Addr == "" {
			return nil, fmt.Errorf("spec: serve.shards requires serve.addr (the router listen address)")
		}
	}
	if pd := root.Get("pushdown"); pd != nil {
		cfg.Pushdown.Programs = pd.StringMap("programs")
		cfg.Pushdown.Allow = pd.Strings("allow")
		cfg.Pushdown.MaxScanMB = pd.Int("max_scan_mb", cfg.Pushdown.MaxScanMB)
		cfg.Pushdown.MaxSteps = pd.Int64("max_steps", cfg.Pushdown.MaxSteps)
		if cfg.Pushdown.MaxScanMB < 0 || cfg.Pushdown.MaxSteps < 0 {
			return nil, fmt.Errorf("spec: pushdown budgets must be >= 0")
		}
		if tns := pd.Get("tenants"); tns != nil && tns.IsList() {
			seen := make(map[string]bool)
			for i, tn := range tns.List() {
				ts := PushdownTenantSpec{
					Name:      tn.Str("name", ""),
					Allow:     tn.Strings("allow"),
					MaxScanMB: tn.Int("max_scan_mb", 0),
					MaxSteps:  tn.Int64("max_steps", 0),
				}
				if ts.Name == "" {
					return nil, fmt.Errorf("spec: pushdown.tenants[%d] is missing 'name'", i)
				}
				if seen[ts.Name] {
					return nil, fmt.Errorf("spec: duplicate pushdown tenant %q", ts.Name)
				}
				if ts.MaxScanMB < 0 || ts.MaxSteps < 0 {
					return nil, fmt.Errorf("spec: pushdown tenant %q has a negative budget", ts.Name)
				}
				seen[ts.Name] = true
				cfg.Pushdown.Tenants = append(cfg.Pushdown.Tenants, ts)
			}
		}
	}
	if slos := root.Get("slo"); slos != nil && slos.IsList() {
		for i, sn := range slos.List() {
			ss := SLOSpec{
				Stack:      sn.Str("stack", ""),
				P99Us:      sn.Float("p99_us", 0),
				MaxErrRate: sn.Float("max_err_rate", 0),
			}
			if ss.Stack == "" {
				return nil, fmt.Errorf("spec: slo[%d] is missing 'stack'", i)
			}
			if ss.P99Us <= 0 && ss.MaxErrRate <= 0 {
				return nil, fmt.Errorf("spec: slo[%d] (%s) declares no limits (set p99_us and/or max_err_rate)", i, ss.Stack)
			}
			cfg.SLOs = append(cfg.SLOs, ss)
		}
	}
	if devs := root.Get("devices"); devs != nil {
		for i, dn := range devs.List() {
			ds := DeviceSpec{Name: dn.Str("name", "")}
			if ds.Name == "" {
				return nil, fmt.Errorf("spec: devices[%d] is missing 'name'", i)
			}
			cls, err := ParseClass(dn.Str("class", "nvme"))
			if err != nil {
				return nil, err
			}
			ds.Class = cls
			n, shift, unit := dn.Int64("capacity_mb", 1024), uint(20), "MiB"
			if gb := dn.Int64("capacity_gb", 0); gb != 0 {
				n, shift, unit = gb, 30, "GiB"
			}
			if n <= 0 || n > math.MaxInt64>>shift {
				return nil, fmt.Errorf("spec: devices[%d] capacity %d %s is not a positive byte count that fits in 63 bits", i, n, unit)
			}
			ds.Capacity = n << shift
			cfg.Devices = append(cfg.Devices, ds)
		}
	}
	cfg.Repos = root.Strings("repos")
	return cfg, nil
}

// ParseClass maps a class name to a device.Class.
func ParseClass(s string) (device.Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "hdd", "disk":
		return device.HDD, nil
	case "ssd", "sata_ssd", "satassd":
		return device.SATASSD, nil
	case "nvme":
		return device.NVMe, nil
	case "pmem", "pm", "nvram":
		return device.PMEM, nil
	default:
		return device.NVMe, fmt.Errorf("spec: unknown device class %q", s)
	}
}
