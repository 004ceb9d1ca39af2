package kernel

import (
	"container/heap"
	"fmt"

	"labstor/internal/device"
	"labstor/internal/vtime"
)

// Engine is one of the kernel's userspace-visible storage APIs performing
// direct I/O against a raw device file (the paper's Fig. 6 baselines:
// O_DIRECT to /dev/nvme0n1 and friends).
type Engine struct {
	// Name identifies the API ("posix", "posix_aio", "libaio", "io_uring").
	Name string

	model *vtime.CostModel
	dev   *device.Device

	// submitCPU is charged on the submitting thread per op.
	submitCPU func(size int) vtime.Duration
	// completeCPU is charged when the completion is observed.
	completeCPU func(size int) vtime.Duration
	// blockingWait: the thread sleeps and is woken by an interrupt
	// (charging InterruptWakeup) instead of polling.
	blockingWait bool
	// queueSteer selects the hardware queue (defaults to core-keyed).
	queueSteer func(t *Thread) int

	// Pace, when set, is invoked with the thread's virtual time after each
	// completion inside RunQueue — used by experiments that couple virtual
	// time to wall time.
	Pace func(vtime.Time)
}

// NewEngine builds one of the named kernel I/O engines over a device.
// Supported names: "posix", "posix_aio", "libaio", "io_uring".
func NewEngine(name string, dev *device.Device, m *vtime.CostModel) (*Engine, error) {
	e := &Engine{Name: name, model: m, dev: dev}
	e.queueSteer = func(t *Thread) int { return t.Core % dev.HardwareQueues() }
	switch name {
	case "posix":
		// write(2)/read(2): syscall + VFS + block layer + in-kernel
		// scheduler + copy between the user buffer and the kernel bio.
		e.submitCPU = func(size int) vtime.Duration {
			return m.ModeSwitch + m.VFSOverhead + m.BlockLayerAlloc + m.KernelSchedOverhead + m.Copy(size)
		}
		e.completeCPU = func(int) vtime.Duration { return 0 }
		e.blockingWait = true
	case "posix_aio":
		// aio_write/aio_read: the glibc thread pool adds a dispatch hop and
		// two extra context switches on top of the sync path.
		e.submitCPU = func(size int) vtime.Duration {
			return m.ModeSwitch + m.AIOThreadDispatch + m.ContextSwitch +
				m.VFSOverhead + m.BlockLayerAlloc + m.KernelSchedOverhead + m.Copy(size)
		}
		e.completeCPU = func(int) vtime.Duration { return m.ContextSwitch }
		e.blockingWait = true
	case "libaio":
		// io_submit/io_getevents: async, no per-op thread switch, but two
		// syscalls per op at depth 1 plus block-layer costs.
		e.submitCPU = func(size int) vtime.Duration {
			return m.ModeSwitch + m.LibaioSubmit + m.BlockLayerAlloc + m.KernelSchedOverhead + m.Copy(size)
		}
		e.completeCPU = func(int) vtime.Duration { return m.ModeSwitch / 2 }
		e.blockingWait = false
	case "io_uring":
		// SQ/CQ rings: amortized submission, polled completion, but the
		// request still traverses the kernel block layer.
		e.submitCPU = func(size int) vtime.Duration {
			return m.IOUringSubmit + m.BlockLayerAlloc + m.KernelSchedOverhead + m.Copy(size)
		}
		e.completeCPU = func(int) vtime.Duration { return m.IOUringSubmit / 4 }
		e.blockingWait = false
	default:
		return nil, fmt.Errorf("kernel: unknown engine %q", name)
	}
	return e, nil
}

// SetQueueSteer overrides hardware-queue selection (used by the in-kernel
// blk-switch scheduler model).
func (e *Engine) SetQueueSteer(f func(t *Thread) int) { e.queueSteer = f }

// AddSubmitCost adds a fixed per-op submission cost on top of the engine's
// path — e.g. the in-kernel blk-switch steering cost: computing per-queue
// load and handing the request off to another core's hardware context
// (lock acquisition + re-insertion) is substantially more expensive inside
// the kernel than a userspace horizon read.
func (e *Engine) AddSubmitCost(d vtime.Duration) {
	base := e.submitCPU
	e.submitCPU = func(size int) vtime.Duration { return base(size) + d }
}

// DoIO performs one synchronous op at the thread's current time and returns
// its modeled latency.
func (e *Engine) DoIO(t *Thread, op device.Op, off int64, buf []byte) (vtime.Duration, error) {
	start := t.Now()
	t.Charge(e.submitCPU(len(buf)))
	hctx := e.queueSteer(t)
	_, end, err := e.dev.SubmitToQueue(hctx, op, off, buf, t.Now())
	if err != nil {
		return 0, err
	}
	if e.blockingWait {
		// Sleep until the device interrupt wakes us.
		t.WaitUntil(end)
		t.Charge(e.model.InterruptWakeup)
	} else {
		// Poll for the completion.
		t.WaitUntil(end)
	}
	t.Charge(e.completeCPU(len(buf)))
	return t.Now().Sub(start), nil
}

// pendingOp tracks one inflight async op for RunQueue.
type pendingOp struct {
	end vtime.Time
}

type pendingHeap []pendingOp

func (h pendingHeap) Len() int           { return len(h) }
func (h pendingHeap) Less(i, j int) bool { return h[i].end < h[j].end }
func (h pendingHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x any)        { *h = append(*h, x.(pendingOp)) }
func (h *pendingHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// IOOp describes one operation for RunQueue.
type IOOp struct {
	Op     device.Op
	Offset int64
	Size   int
}

// RunQueue executes ops with up to iodepth outstanding (async engines) and
// returns each op's modeled completion latency. Sync engines degrade to
// iodepth 1.
func (e *Engine) RunQueue(t *Thread, ops []IOOp, iodepth int, buf []byte) ([]vtime.Duration, error) {
	if iodepth < 1 || e.blockingWait {
		iodepth = 1
	}
	lat := make([]vtime.Duration, 0, len(ops))
	inflight := &pendingHeap{}
	starts := make([]vtime.Time, 0, len(ops))
	for _, op := range ops {
		// Respect the queue depth: wait for the earliest completion.
		for inflight.Len() >= iodepth {
			p := heap.Pop(inflight).(pendingOp)
			t.WaitUntil(p.end)
			t.Charge(e.completeCPU(op.Size))
			if e.Pace != nil {
				e.Pace(t.Now())
			}
		}
		start := t.Now()
		b := buf
		if len(b) < op.Size {
			b = make([]byte, op.Size)
		}
		t.Charge(e.submitCPU(op.Size))
		hctx := e.queueSteer(t)
		_, end, err := e.dev.SubmitToQueue(hctx, op.Op, op.Offset, b[:op.Size], t.Now())
		if err != nil {
			return nil, err
		}
		if e.blockingWait {
			t.WaitUntil(end)
			t.Charge(e.model.InterruptWakeup)
			lat = append(lat, t.Now().Sub(start))
		} else {
			heap.Push(inflight, pendingOp{end: end})
			starts = append(starts, start)
		}
	}
	for inflight.Len() > 0 {
		p := heap.Pop(inflight).(pendingOp)
		t.WaitUntil(p.end)
		t.Charge(e.completeCPU(0))
		// Completion order approximates submission order for latency
		// accounting at steady depth.
		idx := len(lat)
		if idx < len(starts) {
			lat = append(lat, t.Now().Sub(starts[idx]))
		}
	}
	return lat, nil
}

// BlkSwitchSteer returns a queue steer modeling the in-kernel blk-switch
// scheduler: device.SoonestQueue from the thread's core-keyed queue, so
// uncontended threads keep cache-friendly locality instead of piling onto
// queue 0 (the extra in-kernel steering cost is folded into the submit path
// by the caller).
func BlkSwitchSteer(dev *device.Device) func(t *Thread) int {
	return func(t *Thread) int { return dev.SoonestQueue(t.Core % dev.HardwareQueues()) }
}
