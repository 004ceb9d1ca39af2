package spec

import (
	"reflect"
	"strings"
	"testing"

	"labstor/internal/core"
	"labstor/internal/device"
)

func TestParseScalarsAndMaps(t *testing.T) {
	n, err := Parse(`
name: hello
count: 42
big: 9000000000
flag: true
quoted: "a: b # not a comment"
empty:
`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Str("name", "") != "hello" {
		t.Fatal("name")
	}
	if n.Int("count", 0) != 42 {
		t.Fatal("count")
	}
	if n.Int64("big", 0) != 9000000000 {
		t.Fatal("big")
	}
	if !n.Bool("flag", false) {
		t.Fatal("flag")
	}
	if n.Str("quoted", "") != "a: b # not a comment" {
		t.Fatal("quoted:", n.Str("quoted", ""))
	}
	if n.Str("empty", "sentinel") != "" {
		t.Fatal("empty value")
	}
	if n.Str("missing", "def") != "def" || n.Int("missing", 7) != 7 || !n.Bool("missing", true) {
		t.Fatal("defaults")
	}
}

func TestParseNesting(t *testing.T) {
	n, err := Parse(`
outer:
  inner:
    deep: value
  sibling: x
`)
	if err != nil {
		t.Fatal(err)
	}
	inner := n.Get("outer").Get("inner")
	if inner.Str("deep", "") != "value" {
		t.Fatal("deep nesting")
	}
	if n.Get("outer").Str("sibling", "") != "x" {
		t.Fatal("sibling after dedent")
	}
	if keys := n.Get("outer").Keys(); len(keys) != 2 || keys[0] != "inner" {
		t.Fatalf("key order %v", keys)
	}
}

func TestParseLists(t *testing.T) {
	n, err := Parse(`
block:
  - one
  - two
flow: [a, b, "c, d"]
maps:
  - name: first
    value: 1
  - name: second
    value: 2
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Strings("block"); len(got) != 2 || got[1] != "two" {
		t.Fatalf("block list %v", got)
	}
	if got := n.Strings("flow"); len(got) != 3 || got[2] != "c, d" {
		t.Fatalf("flow list %v", got)
	}
	maps := n.Get("maps").List()
	if len(maps) != 2 || maps[1].Str("name", "") != "second" || maps[1].Int("value", 0) != 2 {
		t.Fatal("list of maps")
	}
}

func TestParseComments(t *testing.T) {
	n, err := Parse(`
# full-line comment
key: value # trailing comment
url: "http://x#y"
`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Str("key", "") != "value" {
		t.Fatalf("trailing comment not stripped: %q", n.Str("key", ""))
	}
	if n.Str("url", "") != "http://x#y" {
		t.Fatal("hash inside quotes stripped")
	}
}

func TestParseMountWithDoubleColon(t *testing.T) {
	n, err := Parse("mount: fs::/data/sub\n")
	if err != nil {
		t.Fatal(err)
	}
	if n.Str("mount", "") != "fs::/data/sub" {
		t.Fatalf("mount %q", n.Str("mount", ""))
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("\tkey: value\n"); err == nil {
		t.Fatal("tab indentation accepted")
	}
	if _, err := Parse("key: [unterminated\n"); err == nil {
		t.Fatal("unterminated flow accepted")
	}
	if _, err := Parse("just a bare scalar line\n"); err == nil {
		t.Fatal("bare scalar at top level accepted")
	}
	var pe *ParseError
	_, err := Parse("\tx: 1\n")
	if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("error without line info: %v", err)
	}
	_ = pe
}

func TestParseEmptyDocument(t *testing.T) {
	n, err := Parse("\n# only comments\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if !n.IsMap() || len(n.Keys()) != 0 {
		t.Fatal("empty doc must be an empty map")
	}
}

func TestStringMapAndAccessors(t *testing.T) {
	n, _ := Parse(`
attrs:
  device: nvme0
  log_mb: "16"
single: alone
`)
	m := n.StringMap("attrs")
	if m["device"] != "nvme0" || m["log_mb"] != "16" {
		t.Fatalf("string map %v", m)
	}
	if got := n.Strings("single"); len(got) != 1 || got[0] != "alone" {
		t.Fatal("scalar-as-list")
	}
	if n.StringMap("missing") != nil {
		t.Fatal("missing map")
	}
}

const sampleStack = `
mount: fs::/data
rules:
  exec_mode: sync
  priority: 3
  max_depth: 8
  owners: [1000, 1001]
mods:
  - uuid: genfs
    type: labstor.genericfs
  - uuid: fs
    type: labstor.labfs
    attrs:
      device: nvme0
      log_mb: "8"
    outputs: [drv]
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`

func TestParseStack(t *testing.T) {
	ss, err := ParseStack(sampleStack)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Mount != "fs::/data" {
		t.Fatal("mount")
	}
	if ss.Rules.ExecMode != core.ExecSync || ss.Rules.Priority != 3 || ss.Rules.MaxDepth != 8 {
		t.Fatalf("rules %+v", ss.Rules)
	}
	if len(ss.Rules.Owners) != 2 || ss.Rules.Owners[1] != 1001 {
		t.Fatalf("owners %v", ss.Rules.Owners)
	}
	if len(ss.Vertices) != 3 {
		t.Fatal("vertices")
	}
	// Implicit chain wiring: genfs got no outputs -> next vertex.
	if ss.Vertices[0].Outputs[0] != "fs" {
		t.Fatalf("implicit wiring %v", ss.Vertices[0].Outputs)
	}
	// Explicit outputs preserved.
	if ss.Vertices[1].Outputs[0] != "drv" {
		t.Fatal("explicit outputs")
	}
	if ss.Vertices[1].Attrs["log_mb"] != "8" {
		t.Fatal("attrs")
	}
	st := ss.Stack()
	if st.Entry() != "genfs" {
		t.Fatal("stack materialization")
	}
}

func TestParseStackErrors(t *testing.T) {
	cases := []string{
		"mods:\n  - uuid: a\n    type: t\n", // no mount
		"mount: m\n",                        // no mods
		"mount: m\nmods:\n  - type: t\n",    // missing uuid
		"mount: m\nmods:\n  - uuid: a\n",    // missing type
		"mount: m\nmods:\n  - uuid: a\n    type: t\n  - uuid: a\n    type: t\n",      // dup uuid
		"mount: m\nrules:\n  exec_mode: sideways\nmods:\n  - uuid: a\n    type: t\n", // bad exec mode
	}
	for i, src := range cases {
		if _, err := ParseStack(src); err == nil {
			t.Errorf("case %d accepted:\n%s", i, src)
		}
	}
}

const sampleRuntime = `
runtime:
  workers: 12
  queue_depth: 2048
  upgrade_poll_ms: 7
orchestrator:
  policy: dynamic
  rebalance_ms: 20
devices:
  - name: nvme0
    class: nvme
    capacity_gb: 2
  - name: disk0
    class: hdd
    capacity_mb: 512
repos:
  - mods/core
  - mods/extra
`

func TestParseRuntimeConfig(t *testing.T) {
	cfg, err := ParseRuntimeConfig(sampleRuntime)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 12 || cfg.QueueDepth != 2048 || cfg.UpgradePollMs != 7 {
		t.Fatalf("runtime section %+v", cfg)
	}
	if cfg.Orchestrator.Policy != "dynamic" || cfg.Orchestrator.RebalanceMs != 20 {
		t.Fatalf("orchestrator %+v", cfg.Orchestrator)
	}
	if len(cfg.Devices) != 2 {
		t.Fatal("devices")
	}
	if cfg.Devices[0].Class != device.NVMe || cfg.Devices[0].Capacity != 2<<30 {
		t.Fatalf("device 0 %+v", cfg.Devices[0])
	}
	if cfg.Devices[1].Class != device.HDD || cfg.Devices[1].Capacity != 512<<20 {
		t.Fatalf("device 1 %+v", cfg.Devices[1])
	}
	if len(cfg.Repos) != 2 {
		t.Fatal("repos")
	}
}

// A config written before a key was retired must keep loading, and the key
// must change nothing: each row parses to the same config as its base
// document without the key.
func TestParseRuntimeConfigIgnoresRetiredKeys(t *testing.T) {
	const (
		dev  = "devices:\n  - name: nvme0\n    class: nvme\n    capacity_mb: 512\n"
		rt   = "runtime:\n  workers: 2\n"
		orch = "orchestrator:\n  policy: dynamic\n"
		obs  = "observe:\n  addr: 127.0.0.1:0\n"
	)
	for _, tc := range []struct{ name, base, key string }{
		{"devices[].stripes", dev, "    stripes: 4\n"},
		{"numa", rt, "numa:\n  nodes: 2\n  cross_ns_per_byte: 0.5\n"},
		{"negative numa.nodes", rt, "numa:\n  nodes: -2\n"},
		{"orchestrator.locality_weight", orch, "  locality_weight: 2.5\n"},
		{"orchestrator.idle_park_us", orch, "  idle_park_us: 50\n"},
		{"runtime.trace_ring", rt, "  trace_ring: 256\n"},
		{"observe.flight_ring", obs, "  flight_ring: 256\n"},
		{"observe.tail", obs, "  tail: 64\n"},
		{"observe.tail_quantile", obs, "  tail_quantile: 0.99\n"},
	} {
		with, err := ParseRuntimeConfig(tc.base + tc.key)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		without, err := ParseRuntimeConfig(tc.base)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(with, without) {
			t.Errorf("%s: with the key %+v, without %+v", tc.name, with, without)
		}
	}
}

func TestParseRuntimeConfigRejectsBadCapacity(t *testing.T) {
	for _, capacity := range []string{
		"capacity_mb: -1",
		"capacity_mb: 0",
		"capacity_mb: 8796093022208", // 2^43 MiB = 2^63 bytes
		"capacity_gb: -1",
		"capacity_gb: 8589934592", // 2^33 GiB = 2^63 bytes
	} {
		_, err := ParseRuntimeConfig("devices:\n  - name: nvme0\n    " + capacity + "\n")
		if err == nil || !strings.Contains(err.Error(), "spec: devices[0] capacity") {
			t.Errorf("%s: err = %v, want a devices[0] capacity error", capacity, err)
		}
	}
	cfg, err := ParseRuntimeConfig("devices:\n  - name: nvme0\n    capacity_mb: 8796093022207\n")
	if err != nil || cfg.Devices[0].Capacity != 8796093022207<<20 {
		t.Errorf("largest capacity that fits: %v, %+v", err, cfg)
	}
}

func TestParseRuntimeConfigDefaults(t *testing.T) {
	cfg, err := ParseRuntimeConfig("")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 || cfg.QueueDepth != 1024 {
		t.Fatalf("defaults %+v", cfg)
	}
}

func TestParseObserveAndSLO(t *testing.T) {
	cfg, err := ParseRuntimeConfig(`
runtime:
  workers: 2
observe:
  addr: 127.0.0.1:0
  pprof: false
  slo_check_ms: 50
slo:
  - stack: fs::/probe
    p99_us: 500
    max_err_rate: 0.01
  - stack: kv::/b
    max_err_rate: 0.05
`)
	if err != nil {
		t.Fatal(err)
	}
	ob := cfg.Observe
	if ob.Addr != "127.0.0.1:0" || ob.Pprof || ob.SLOCheckMs != 50 {
		t.Fatalf("observe %+v", ob)
	}
	if len(cfg.SLOs) != 2 {
		t.Fatalf("slos %+v", cfg.SLOs)
	}
	if s := cfg.SLOs[0]; s.Stack != "fs::/probe" || s.P99Us != 500 || s.MaxErrRate != 0.01 {
		t.Fatalf("slo 0 %+v", s)
	}
	if s := cfg.SLOs[1]; s.Stack != "kv::/b" || s.P99Us != 0 || s.MaxErrRate != 0.05 {
		t.Fatalf("slo 1 %+v", s)
	}
}

func TestParseObserveTailAndBundle(t *testing.T) {
	cfg, err := ParseRuntimeConfig(`
observe:
  addr: 127.0.0.1:0
  tail: 128
  tail_quantile: 0.995
  bundle_dir: /tmp/labstor-bundles
  bundle_profile_ms: 100
  bundle_cooldown_ms: 30000
  bundle_max: 4
`)
	if err != nil {
		t.Fatal(err)
	}
	ob := cfg.Observe
	if ob.BundleDir != "/tmp/labstor-bundles" || ob.BundleProfileMs != 100 ||
		ob.BundleCooldownMs != 30000 || ob.BundleMax != 4 {
		t.Fatalf("bundle knobs %+v", ob)
	}

	// Absent keys stay zero: downstream layers own the defaults, so a bare
	// config keeps capture disarmed.
	cfg, err = ParseRuntimeConfig("observe:\n  addr: :0\n")
	if err != nil {
		t.Fatal(err)
	}
	ob = cfg.Observe
	if ob.BundleDir != "" ||
		ob.BundleProfileMs != 0 || ob.BundleCooldownMs != 0 || ob.BundleMax != 0 {
		t.Fatalf("unset tail/bundle knobs not zero: %+v", ob)
	}
}

func TestParseObserveDefaults(t *testing.T) {
	cfg, err := ParseRuntimeConfig("")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Observe.Addr != "" || !cfg.Observe.Pprof {
		t.Fatalf("observe defaults %+v", cfg.Observe)
	}
	if len(cfg.SLOs) != 0 {
		t.Fatalf("slo defaults %+v", cfg.SLOs)
	}
}

func TestParseSLOErrors(t *testing.T) {
	if _, err := ParseRuntimeConfig("slo:\n  - p99_us: 10\n"); err == nil {
		t.Fatal("slo entry without a stack accepted")
	}
	if _, err := ParseRuntimeConfig("slo:\n  - stack: fs::/a\n"); err == nil {
		t.Fatal("slo entry without limits accepted")
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]device.Class{
		"hdd": device.HDD, "ssd": device.SATASSD, "nvme": device.NVMe,
		"pmem": device.PMEM, "NVMe": device.NVMe,
	} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseClass("floppy"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestParseNestedListDash(t *testing.T) {
	n, err := Parse(`
items:
  -
    name: bare-dash
  - name: inline
`)
	if err != nil {
		t.Fatal(err)
	}
	items := n.Get("items").List()
	if len(items) != 2 {
		t.Fatalf("items %d", len(items))
	}
	if items[0].Str("name", "") != "bare-dash" || items[1].Str("name", "") != "inline" {
		t.Fatalf("items %v %v", items[0], items[1])
	}
}

func TestParseEmptyFlowList(t *testing.T) {
	n, err := Parse("xs: []\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Strings("xs"); len(got) != 0 {
		t.Fatalf("empty flow list %v", got)
	}
	if !n.Get("xs").IsList() {
		t.Fatal("not a list")
	}
}

func TestNodeAccessorsOnWrongKinds(t *testing.T) {
	n, _ := Parse("lst: [a]\nmp:\n  k: v\n")
	if n.Str("lst", "d") != "d" {
		t.Fatal("Str on list must default")
	}
	if n.Int("mp", 3) != 3 {
		t.Fatal("Int on map must default")
	}
	if n.Get("mp").IsScalar() || !n.Get("mp").IsMap() {
		t.Fatal("kind predicates")
	}
	var nilNode *Node
	if nilNode.Scalar() != "" || nilNode.List() != nil || nilNode.Keys() != nil || nilNode.Get("x") != nil {
		t.Fatal("nil node accessors")
	}
	if nilNode.IsScalar() || nilNode.IsList() || nilNode.IsMap() {
		t.Fatal("nil node kinds")
	}
}

func TestParseSingleQuotes(t *testing.T) {
	n, err := Parse("k: 'single # quoted'\n")
	if err != nil {
		t.Fatal(err)
	}
	if n.Str("k", "") != "single # quoted" {
		t.Fatalf("%q", n.Str("k", ""))
	}
}

func TestParseServeBlock(t *testing.T) {
	cfg, err := ParseRuntimeConfig(`
serve:
  addr: 127.0.0.1:7600
  batch: 48
  max_payload_mb: 8
  demand_poll_ms: 25
  default:
    inflight: 128
  tenants:
    - name: gold
      rate_per_sec: 50000
      burst: 1000
      inflight: 512
    - name: bronze
      rate_per_sec: 500
`)
	if err != nil {
		t.Fatal(err)
	}
	sv := cfg.Serve
	if sv.Addr != "127.0.0.1:7600" || sv.Batch != 48 || sv.MaxPayloadMB != 8 || sv.DemandPollMs != 25 {
		t.Fatalf("serve %+v", sv)
	}
	if sv.Default.Inflight != 128 {
		t.Fatalf("default policy %+v", sv.Default)
	}
	if len(sv.Tenants) != 2 {
		t.Fatalf("tenants %+v", sv.Tenants)
	}
	if g := sv.Tenants[0]; g.Name != "gold" || g.RatePerSec != 50000 || g.Burst != 1000 || g.Inflight != 512 {
		t.Fatalf("gold %+v", g)
	}
	if b := sv.Tenants[1]; b.Name != "bronze" || b.RatePerSec != 500 || b.Burst != 0 {
		t.Fatalf("bronze %+v", b)
	}

	// Router mode: shards list + replicas.
	cfg, err = ParseRuntimeConfig(`
serve:
  addr: 127.0.0.1:7600
  replicas: 32
  shards: [127.0.0.1:7601, 127.0.0.1:7602]
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Serve.Shards) != 2 || cfg.Serve.Replicas != 32 {
		t.Fatalf("router serve %+v", cfg.Serve)
	}

	// Omitted section leaves serving disabled.
	cfg, err = ParseRuntimeConfig("runtime:\n  workers: 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Serve.Addr != "" || len(cfg.Serve.Tenants) != 0 {
		t.Fatalf("serve default %+v", cfg.Serve)
	}
}

func TestParseServeBlockErrors(t *testing.T) {
	if _, err := ParseRuntimeConfig("serve:\n  shards: [a:1]\n"); err == nil {
		t.Fatal("shards without addr accepted")
	}
	if _, err := ParseRuntimeConfig("serve:\n  addr: x\n  tenants:\n    - rate_per_sec: 5\n"); err == nil {
		t.Fatal("tenant without name accepted")
	}
	if _, err := ParseRuntimeConfig("serve:\n  addr: x\n  tenants:\n    - name: a\n    - name: a\n"); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if _, err := ParseRuntimeConfig("serve:\n  addr: x\n  tenants:\n    - name: a\n      inflight: -1\n"); err == nil {
		t.Fatal("negative limit accepted")
	}
}
