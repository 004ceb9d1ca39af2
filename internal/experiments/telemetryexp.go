package experiments

import (
	"fmt"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/runtime"
	"labstor/internal/spec"
)

// TelemetryProbe boots a Runtime from cfg (spec defaults if nil), mounts a
// quickstart-style LabFS stack plus a LabKVS stack over the configured
// devices, drives a small mixed workload through two clients, and returns
// the final telemetry snapshot. It is the engine behind `labctl stats` and
// `labbench -telemetry`: every run of it reproduces the per-worker,
// per-queue and per-stage tree the EXPERIMENTS.md tables are built from.
func TelemetryProbe(cfg *spec.RuntimeConfig, ops int) (*runtime.Snapshot, error) {
	if cfg == nil {
		cfg = spec.DefaultRuntimeConfig()
	}
	if ops <= 0 {
		ops = 200
	}
	opts := runtime.FromConfig(cfg)
	rt := runtime.New(opts)

	devs := cfg.Devices
	if len(devs) == 0 {
		devs = []spec.DeviceSpec{{Name: "nvme0", Class: device.NVMe, Capacity: 256 << 20}}
	}
	for _, d := range devs {
		rt.AddDevice(device.New(d.Name, d.Class, d.Capacity))
	}

	fsDev := devs[0].Name
	kvDev := devs[len(devs)-1].Name
	if _, err := MountLab(rt, "fs::/probe", fsDev, LabAll("kernel_driver")); err != nil {
		return nil, fmt.Errorf("telemetry probe: mount fs: %w", err)
	}
	kvCfg := LabCfg{Generic: true, KV: true, Sched: "noop", Driver: "kernel_driver"}
	if _, err := MountLab(rt, "kv::/probe", kvDev, kvCfg); err != nil {
		return nil, fmt.Errorf("telemetry probe: mount kv: %w", err)
	}

	rt.Start()
	defer rt.Shutdown()

	buf := make([]byte, 16<<10)
	for c := 0; c < 2; c++ {
		cli := rt.Connect(ipc.Credentials{PID: 100 + c, UID: 1000, GID: 1000})
		for i := 0; i < ops; i++ {
			path := fmt.Sprintf("f-%d-%d", c, i%16)
			w := core.NewRequest(core.OpWrite)
			w.Path = path
			w.Flags = core.FlagCreate
			w.Offset = int64(i%8) * int64(len(buf))
			w.Size = len(buf)
			w.Data = buf
			if err := cli.Submit("fs::/probe", w); err != nil {
				return nil, fmt.Errorf("telemetry probe: write: %w", err)
			}
			r := core.NewRequest(core.OpRead)
			r.Path = path
			r.Offset = w.Offset
			r.Size = len(buf)
			r.Data = make([]byte, len(buf))
			if err := cli.Submit("fs::/probe", r); err != nil {
				return nil, fmt.Errorf("telemetry probe: read: %w", err)
			}
			st := core.NewRequest(core.OpStat)
			st.Path = path
			if err := cli.Submit("fs::/probe", st); err != nil {
				return nil, fmt.Errorf("telemetry probe: stat: %w", err)
			}
			p := core.NewRequest(core.OpPut)
			p.Key = fmt.Sprintf("k-%d-%d", c, i%32)
			p.Size = 4096
			p.Data = buf[:4096]
			if err := cli.Submit("kv::/probe", p); err != nil {
				return nil, fmt.Errorf("telemetry probe: put: %w", err)
			}
			g := core.NewRequest(core.OpGet)
			g.Key = p.Key
			if err := cli.Submit("kv::/probe", g); err != nil {
				return nil, fmt.Errorf("telemetry probe: get: %w", err)
			}
		}
	}
	// Close the measurement epoch so the snapshot's queue rates and the
	// dynamic policy's last decision reflect the workload just run.
	rt.Orchestrator().Rebalance()
	return rt.Snapshot(), nil
}
