// Package driver implements LabStor's Driver LabMods — the terminal
// vertices of a LabStack that talk to (simulated) storage hardware:
//
//   - KernelDriver exposes the Linux multi-queue driver's hardware dispatch
//     queues directly (the paper's submit_io_to_hctx path through the Kernel
//     Ops Manager): no syscall per I/O, but kernel request structures must
//     still be allocated;
//   - SPDK models a fully userspace polled NVMe driver: commands are built
//     in userspace and rung directly on a device queue, with no kernel
//     structures at all;
//   - DAX models byte-addressable persistent-memory access: data moves with
//     CPU load/store (memcpy) and there is no block indirection.
//
// All three are functional (bytes land on the simulated device and read
// back) and charge their calibrated software cost in virtual time, which is
// what produces the Fig. 6 storage-API ladder. KernelDriver and SPDK DMA by
// reference: the device keeps a write's buffer handle and answers a read
// with no destination with a view of its stored block. DAX keeps its CPU
// memcpy, because that is what it models.
package driver

import (
	"fmt"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/vtime"
)

// Type names registered with the core module factory.
const (
	KernelDriverType = "labstor.kernel_driver"
	SPDKType         = "labstor.spdk"
	DAXType          = "labstor.dax"
)

func init() {
	core.RegisterType(KernelDriverType, func() core.Module { return &KernelDriver{} })
	core.RegisterType(SPDKType, func() core.Module { return &SPDK{} })
	core.RegisterType(DAXType, func() core.Module { return &DAX{} })
}

// resolveDevice fetches the device named by the vertex's "device" attribute.
func resolveDevice(b *core.Base) (*device.Device, error) {
	name := b.Cfg.Attr("device", "")
	if name == "" {
		return nil, fmt.Errorf("driver: vertex %q has no 'device' attribute", b.Cfg.UUID)
	}
	return b.Env.Device(name)
}

func opOf(req *core.Request) (device.Op, error) {
	switch req.Op {
	case core.OpBlockRead, core.OpRead, core.OpGet:
		return device.Read, nil
	case core.OpBlockWrite, core.OpWrite, core.OpAppend, core.OpPut:
		return device.Write, nil
	default:
		return device.Read, fmt.Errorf("driver: %w: %s", core.ErrNotSupported, req.Op)
	}
}

// queueIO moves a block request through hardware queue req.Hctx by
// reference where the request allows it, as a DMA engine moves a
// registered buffer without the host CPU (DESIGN.md §13): a write whose
// Buf is the handle behind Data is stored by Retain, and a read with no
// destination is answered with a retained view of the stored block. A
// bare Data slice is borrowed, so the device copies it.
func queueIO(dev *device.Device, req *core.Request, op device.Op) error {
	var end vtime.Time
	var err error
	n := len(req.Data)
	switch {
	case op == device.Read && req.Data == nil:
		var h core.BufHandle
		h, _, end, err = dev.ReadBuf(req.Hctx, req.Offset, req.Size, req.Clock)
		if err == nil {
			n = len(req.SetValue(h))
		}
	case op == device.Write && req.Buf.Valid() && req.Buf.Len() == n:
		_, end, err = dev.WriteBuf(req.Hctx, req.Offset, req.Buf, req.Clock)
	default:
		_, end, err = dev.SubmitToQueue(req.Hctx, op, req.Offset, req.Data, req.Clock)
	}
	if err != nil {
		return err
	}
	req.ChargeIO("io", end)
	req.Result = int64(n)
	return nil
}

// KernelDriver is the MQ kernel driver LabMod.
type KernelDriver struct {
	core.Base
	dev *device.Device
}

// Info describes the module.
func (d *KernelDriver) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: KernelDriverType, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIDriver}
}

// Configure binds the device.
func (d *KernelDriver) Configure(cfg core.Config, env *core.Env) error {
	if err := d.Base.Configure(cfg, env); err != nil {
		return err
	}
	dev, err := resolveDevice(&d.Base)
	if err != nil {
		return err
	}
	d.dev = dev
	return nil
}

// Process submits the block request to the hardware dispatch queue selected
// by the upstream I/O scheduler (req.Hctx).
func (d *KernelDriver) Process(e *core.Exec, req *core.Request) error {
	switch req.Op {
	case core.OpBlockFlush:
		req.Charge("driver", e.Model.KernelDriverSubmit)
		return nil
	case core.OpBlockDiscard:
		req.Charge("driver", e.Model.KernelDriverSubmit)
		return d.dev.Trim(req.Offset, int64(req.Size))
	}
	op, err := opOf(req)
	if err != nil {
		return err
	}
	// Kernel request structure allocation + doorbell through the KO manager.
	req.Charge("driver", e.Model.KernelDriverSubmit)
	return queueIO(d.dev, req, op)
}

// StateRepair revalidates the device binding.
func (d *KernelDriver) StateRepair() error {
	dev, err := resolveDevice(&d.Base)
	if err != nil {
		return err
	}
	d.dev = dev
	return nil
}

// SPDK is the fully userspace polled NVMe driver LabMod.
type SPDK struct {
	core.Base
	dev *device.Device
}

// Info describes the module.
func (d *SPDK) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: SPDKType, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIDriver}
}

// Configure binds the device.
func (d *SPDK) Configure(cfg core.Config, env *core.Env) error {
	if err := d.Base.Configure(cfg, env); err != nil {
		return err
	}
	dev, err := resolveDevice(&d.Base)
	if err != nil {
		return err
	}
	d.dev = dev
	return nil
}

// Process builds the NVMe command in userspace and rings the queue
// directly; completion is polled, so no interrupt or kernel structure cost.
func (d *SPDK) Process(e *core.Exec, req *core.Request) error {
	switch req.Op {
	case core.OpBlockFlush:
		req.Charge("driver", e.Model.SPDKSubmit)
		return nil
	case core.OpBlockDiscard:
		req.Charge("driver", e.Model.SPDKSubmit)
		return d.dev.Trim(req.Offset, int64(req.Size))
	}
	op, err := opOf(req)
	if err != nil {
		return err
	}
	req.Charge("driver", e.Model.SPDKSubmit)
	return queueIO(d.dev, req, op)
}

// StateRepair revalidates the device binding.
func (d *SPDK) StateRepair() error {
	dev, err := resolveDevice(&d.Base)
	if err != nil {
		return err
	}
	d.dev = dev
	return nil
}

// DAX is the byte-addressable persistent-memory LabMod: the device is
// mapped into the address space and accessed with load/store.
type DAX struct {
	core.Base
	dev *device.Device
}

// Info describes the module.
func (d *DAX) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: DAXType, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIDriver}
}

// Configure binds the device and checks it is byte-addressable.
func (d *DAX) Configure(cfg core.Config, env *core.Env) error {
	if err := d.Base.Configure(cfg, env); err != nil {
		return err
	}
	dev, err := resolveDevice(&d.Base)
	if err != nil {
		return err
	}
	if !dev.Profile.ByteAddressable {
		return fmt.Errorf("driver: DAX requires a byte-addressable device, %s is %s", dev.Name, dev.Class())
	}
	d.dev = dev
	return nil
}

// Process performs the mapped-memory copy. There is no command submission
// at all: the transfer time is the media's load/store bandwidth, plus a
// tiny fixed mapping/flush cost.
func (d *DAX) Process(e *core.Exec, req *core.Request) error {
	switch req.Op {
	case core.OpBlockFlush:
		req.Charge("driver", e.Model.DAXAccessSetup) // clwb+fence
		return nil
	case core.OpBlockDiscard:
		req.Charge("driver", e.Model.DAXAccessSetup)
		return d.dev.Trim(req.Offset, int64(req.Size))
	}
	op, err := opOf(req)
	if err != nil {
		return err
	}
	req.Charge("driver", e.Model.DAXAccessSetup)
	buf := req.Data
	if op == device.Read && buf == nil {
		// Arena-backed result buffer: recycled when the caller Releases the
		// request (the device read below fills it fully).
		buf = req.CompleteValue(req.Size)
	}
	_, end, err := d.dev.Submit(op, req.Offset, buf, req.Clock)
	if err != nil {
		return err
	}
	req.ChargeIO("io", end)
	req.Result = int64(len(buf))
	return nil
}

// StateRepair revalidates the device binding.
func (d *DAX) StateRepair() error {
	dev, err := resolveDevice(&d.Base)
	if err != nil {
		return err
	}
	d.dev = dev
	return nil
}
