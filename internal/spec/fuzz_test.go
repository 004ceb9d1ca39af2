package spec

import (
	"strings"
	"testing"
)

// FuzzSpecParse throws arbitrary documents at the YAML subset parser and
// both schema builders (the FuzzFrameDecode of the config plane).
// Properties: no panics, no unbounded growth, and any stack that builds
// successfully satisfies the schema invariants the runtime relies on
// (non-empty mount, named vertices, edges that resolve).
func FuzzSpecParse(f *testing.F) {
	f.Add(`
mount: fs::/data
rules:
  exec_mode: async
stack:
  - uuid: fs1
    type: labstor.labfs
    attrs:
      device: nvme0
    outputs: [drv1]
  - uuid: drv1
    type: labstor.kerneldriver
    attrs:
      device: nvme0
`)
	f.Add(`
workers: 4
queue_depth: 1024
devices:
  - name: nvme0
    class: nvme
    capacity_mb: 256
serve:
  addr: 127.0.0.1:0
  tenants:
    - name: gold
      rate_per_sec: 1000
pushdown:
  programs:
    errs: count where substr "error"
  allow: [errs]
  max_scan_mb: 16
  tenants:
    - name: gold
      allow: ["*"]
      max_scan_mb: 64
`)
	f.Add("mount: kv::/b\nstack:\n  - uuid: a\n    type: t\n")
	f.Add("slo:\n  - op: read\n    p99_us: 500\n")
	f.Add("devices:\n  - name: d\n    capacity_mb: -1\n")
	f.Add(":\n:\n  -\n- x\n")
	f.Add("a:\n\tb: tab-indent\n")
	f.Add(strings.Repeat("deep:\n ", 30) + "x: y\n")
	f.Add("stack:\n  - uuid: \"unterminated\n")

	f.Fuzz(func(t *testing.T, src string) {
		// Cap input size so the corpus can't grow quadratic documents.
		if len(src) > 1<<16 {
			return
		}
		if s, err := ParseStack(src); err == nil {
			if s.Mount == "" {
				t.Fatal("built stack with empty mount")
			}
			seen := make(map[string]bool, len(s.Vertices))
			for _, v := range s.Vertices {
				if v.UUID == "" || v.Type == "" {
					t.Fatalf("built vertex with empty uuid/type: %+v", v)
				}
				if seen[v.UUID] {
					t.Fatalf("built stack with duplicate vertex %q", v.UUID)
				}
				seen[v.UUID] = true
			}
			for _, v := range s.Vertices {
				for _, out := range v.Outputs {
					if !seen[out] {
						t.Fatalf("vertex %q edge to unknown %q", v.UUID, out)
					}
				}
			}
		}
		if cfg, err := ParseRuntimeConfig(src); err == nil {
			if cfg.Workers < 0 || cfg.QueueDepth < 0 {
				t.Fatalf("built config with negative sizing: %+v", cfg)
			}
			if cfg.Pushdown.MaxScanMB < 0 || cfg.Pushdown.MaxSteps < 0 {
				t.Fatalf("built config with negative pushdown budgets: %+v", cfg.Pushdown)
			}
			for _, d := range cfg.Devices {
				if d.Capacity <= 0 {
					t.Fatalf("built device with capacity %d: %+v", d.Capacity, d)
				}
			}
			for _, ts := range cfg.Pushdown.Tenants {
				if ts.Name == "" {
					t.Fatal("built pushdown tenant with empty name")
				}
			}
		}
	})
}
