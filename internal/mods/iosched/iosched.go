// Package iosched implements I/O scheduler LabMods. I/O schedulers are
// block-layer policy modules: they pick the hardware dispatch queue (hctx)
// each block request is steered to, then forward the request downstream to
// a driver LabMod.
//
// Two policies from the paper's evaluation are provided:
//
//   - NoOp keys a request to a hardware queue by the CPU core the request
//     originated on — the Linux noop/none behaviour. Cheap, but colocated
//     workloads that share a core share a queue and suffer head-of-line
//     blocking.
//   - BlkSwitch considers the load on each queue (the blk-switch paper's
//     request steering) and sends the request to the least-loaded hardware
//     queue, trading a little per-request work for isolation between
//     throughput-bound and latency-bound applications.
package iosched

import (
	"fmt"

	"labstor/internal/core"
	"labstor/internal/device"
)

// Type names registered with the core module factory.
const (
	NoOpType      = "labstor.noop"
	BlkSwitchType = "labstor.blkswitch"
)

func init() {
	core.RegisterType(NoOpType, func() core.Module { return &NoOp{} })
	core.RegisterType(BlkSwitchType, func() core.Module { return &BlkSwitch{} })
}

// NoOp is the no-op scheduler: requests map to the hardware queue of their
// originating core.
type NoOp struct {
	core.Base
	queues int
}

// Info describes the module.
func (s *NoOp) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: NoOpType, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIBlock}
}

// Configure reads the optional device binding to learn the queue count.
func (s *NoOp) Configure(cfg core.Config, env *core.Env) error {
	if err := s.Base.Configure(cfg, env); err != nil {
		return err
	}
	s.queues = 0
	if name := cfg.Attr("device", ""); name != "" {
		dev, err := env.Device(name)
		if err != nil {
			return err
		}
		s.queues = dev.HardwareQueues()
	}
	return nil
}

// Process keys the request to a queue and forwards it.
func (s *NoOp) Process(e *core.Exec, req *core.Request) error {
	req.Charge("sched", e.Model.NoOpSched)
	if s.queues > 0 {
		req.Hctx = req.OriginCore % s.queues
	} else {
		req.Hctx = req.OriginCore
	}
	return e.Next(req)
}

// BlkSwitch is the load-aware queue-steering scheduler. Following the
// blk-switch design's separation of latency-critical from throughput-bound
// requests, small requests (at most steerMax bytes) are steered to the
// least-loaded hardware queue, while large throughput-bound requests stay
// core-keyed so they cannot crowd every queue.
type BlkSwitch struct {
	core.Base
	dev *device.Device
}

// steerMax is the largest request BlkSwitch steers.
const steerMax = 16 << 10

// Info describes the module.
func (s *BlkSwitch) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: BlkSwitchType, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIBlock}
}

// Configure binds the device whose queues are steered.
func (s *BlkSwitch) Configure(cfg core.Config, env *core.Env) error {
	if err := s.Base.Configure(cfg, env); err != nil {
		return err
	}
	name := cfg.Attr("device", "")
	if name == "" {
		return fmt.Errorf("iosched: blkswitch vertex %q needs a 'device' attribute", cfg.UUID)
	}
	dev, err := env.Device(name)
	if err != nil {
		return err
	}
	s.dev = dev
	return nil
}

// Process steers latency-critical requests to the hardware queue that
// drains soonest; throughput-bound requests stay on their core's queue.
func (s *BlkSwitch) Process(e *core.Exec, req *core.Request) error {
	req.Charge("sched", e.Model.BlkSwitchSched)
	own := req.OriginCore % s.dev.HardwareQueues()
	if req.Size > steerMax {
		req.Hctx = own
		return e.Next(req)
	}
	req.Hctx = s.dev.SoonestQueue(own)
	return e.Next(req)
}

// StateRepair revalidates the device binding.
func (s *BlkSwitch) StateRepair() error {
	dev, err := s.Env.Device(s.Cfg.Attr("device", ""))
	if err != nil {
		return err
	}
	s.dev = dev
	return nil
}
