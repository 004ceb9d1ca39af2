package device

import (
	"fmt"
	"sync"

	"labstor/internal/vtime"
)

// Class identifies the storage technology a Device models.
type Class uint8

const (
	// HDD models a 15K-RPM SAS drive (Seagate ST600MP0005 in the paper).
	HDD Class = iota
	// SATASSD models a SATA SSD (Intel SSDSC2BX01).
	SATASSD
	// NVMe models an NVMe SSD (Intel P3700).
	NVMe
	// PMEM models byte-addressable persistent memory (bootloader-emulated
	// in the paper).
	PMEM
)

func (c Class) String() string {
	switch c {
	case HDD:
		return "HDD"
	case SATASSD:
		return "SSD"
	case NVMe:
		return "NVMe"
	case PMEM:
		return "PMEM"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Op is the direction of an I/O.
type Op uint8

const (
	// Read transfers data from the device.
	Read Op = iota
	// Write transfers data to the device.
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Profile holds the performance parameters for a device class.
type Profile struct {
	Class Class
	// AccessLatency is the fixed per-command latency (flash translation,
	// controller, media access; excludes transfer and seek).
	AccessLatency vtime.Duration
	// ReadBandwidth / WriteBandwidth are sustained transfer rates in
	// bytes per virtual second.
	ReadBandwidth  float64
	WriteBandwidth float64
	// HardwareQueues is the number of submission queues the device exposes
	// (Linux MQ hctx count; 1 for single-queue devices).
	HardwareQueues int
	// Parallelism is the device's internal service parallelism (channels/
	// dies for flash, interleaved DIMMs for PMEM, 1 for HDD heads).
	Parallelism int
	// AvgSeek and AvgRotation model mechanical positioning (HDD only).
	AvgSeek     vtime.Duration
	AvgRotation vtime.Duration
	// ByteAddressable marks load/store-capable media (PMEM/DAX).
	ByteAddressable bool
}

// Profiles calibrated against the paper's testbed hardware.
var (
	// HDDProfile: 15K RPM SAS, ~200 MB/s sequential, ~4 ms average seek,
	// 2 ms half-rotation.
	HDDProfile = Profile{
		Class:          HDD,
		AccessLatency:  200 * vtime.Microsecond,
		ReadBandwidth:  215e6, // bytes per virtual second
		WriteBandwidth: 200e6,
		HardwareQueues: 1,
		Parallelism:    1,
		AvgSeek:        4 * vtime.Millisecond,
		AvgRotation:    2 * vtime.Millisecond,
	}
	// SATASSDProfile: ~70 us access, ~540/520 MB/s, AHCI single queue.
	SATASSDProfile = Profile{
		Class:          SATASSD,
		AccessLatency:  70 * vtime.Microsecond,
		ReadBandwidth:  540e6,
		WriteBandwidth: 520e6,
		HardwareQueues: 1,
		Parallelism:    4,
	}
	// NVMeProfile: ~15 us access, 2.8/1.9 GB/s, many hardware queues.
	NVMeProfile = Profile{
		Class:          NVMe,
		AccessLatency:  15 * vtime.Microsecond,
		ReadBandwidth:  2.8e9,
		WriteBandwidth: 1.9e9,
		HardwareQueues: 32,
		Parallelism:    16,
	}
	// PMEMProfile: sub-microsecond access, memory-bus bandwidth.
	PMEMProfile = Profile{
		Class:           PMEM,
		AccessLatency:   500 * vtime.Nanosecond,
		ReadBandwidth:   8e9,
		WriteBandwidth:  4e9,
		HardwareQueues:  1,
		Parallelism:     8,
		ByteAddressable: true,
	}
)

// ProfileFor returns the calibrated profile for a class.
func ProfileFor(c Class) Profile {
	switch c {
	case HDD:
		return HDDProfile
	case SATASSD:
		return SATASSDProfile
	case NVMe:
		return NVMeProfile
	case PMEM:
		return PMEMProfile
	default:
		return NVMeProfile
	}
}

// Device is a functional, virtual-time-modeled storage device.
type Device struct {
	Name    string
	Profile Profile

	store  *SparseStore
	server *vtime.Server
	hctx   []*vtime.Lock // per-hardware-queue FIFO dispatch timelines

	mu        sync.Mutex
	frontiers map[int64]bool // expected next offsets of active sequential streams (HDD)

	statsMu    sync.Mutex
	reads      int64
	writes     int64
	bytesRead  int64
	bytesWrote int64
	busy       vtime.Duration
}

// New creates a device of the given class with the given capacity in bytes,
// using the calibrated profile for that class.
func New(name string, class Class, capacity int64) *Device {
	return NewWithProfile(name, ProfileFor(class), capacity)
}

// NewWithProfile creates a device with an explicit profile.
func NewWithProfile(name string, p Profile, capacity int64) *Device {
	if p.Parallelism < 1 {
		p.Parallelism = 1
	}
	if p.HardwareQueues < 1 {
		p.HardwareQueues = 1
	}
	d := &Device{
		Name:    name,
		Profile: p,
		store:   NewSparseStore(capacity),
		server:  vtime.NewServer(p.Parallelism),
		hctx:    make([]*vtime.Lock, p.HardwareQueues),
	}
	for i := range d.hctx {
		d.hctx[i] = &vtime.Lock{}
	}
	return d
}

// HardwareQueues returns the number of hardware dispatch queues (hctx).
func (d *Device) HardwareQueues() int { return len(d.hctx) }

// Capacity returns the device capacity in bytes.
func (d *Device) Capacity() int64 { return d.store.Capacity() }

// Stripes returns the sparse store's lock-stripe count.
func (d *Device) Stripes() int { return d.store.Stripes() }

// Materialized returns the bytes actually allocated in the sparse store.
func (d *Device) Materialized() int64 { return d.store.Materialized() }

// Class returns the device class.
func (d *Device) Class() Class { return d.Profile.Class }

// ServiceTime returns the modeled media service time for one command of the
// given op/offset/length, including positioning for HDDs. It advances the
// sequentiality tracker.
func (d *Device) ServiceTime(op Op, off int64, n int) vtime.Duration {
	p := d.Profile
	t := p.AccessLatency
	bw := p.ReadBandwidth
	if op == Write {
		bw = p.WriteBandwidth
	}
	if bw > 0 && n > 0 {
		t += vtime.Duration(float64(n) / bw * 1e9)
	}
	if p.Class == HDD {
		// Seek accounting is per *stream*, not per submission order: an
		// access extending any active sequential stream pays no positioning
		// cost, regardless of how concurrent streams interleave. This keeps
		// the model deterministic under concurrent submitters.
		d.mu.Lock()
		if d.frontiers == nil {
			d.frontiers = make(map[int64]bool)
		}
		sequential := d.frontiers[off]
		if sequential {
			delete(d.frontiers, off)
		}
		if len(d.frontiers) > 256 {
			for k := range d.frontiers {
				delete(d.frontiers, k)
				if len(d.frontiers) <= 128 {
					break
				}
			}
		}
		d.frontiers[off+int64(n)] = true
		d.mu.Unlock()
		if !sequential {
			t += p.AvgSeek + p.AvgRotation
		}
	}
	return t
}

// Submit performs the data movement for one command and models its service:
// it returns the virtual (start, completion) interval for a command arriving
// at the device at time arrival. The buffer is read from or written to the
// backing store synchronously (functionally the I/O always happens).
func (d *Device) Submit(op Op, off int64, buf []byte, arrival vtime.Time) (vtime.Time, vtime.Time, error) {
	var err error
	if op == Read {
		_, err = d.store.ReadAt(buf, off)
	} else {
		_, err = d.store.WriteAt(buf, off)
	}
	if err != nil {
		return arrival, arrival, err
	}
	svc := d.ServiceTime(op, off, len(buf))
	start, end := d.server.Serve(arrival, svc)

	d.statsMu.Lock()
	if op == Read {
		d.reads++
		d.bytesRead += int64(len(buf))
	} else {
		d.writes++
		d.bytesWrote += int64(len(buf))
	}
	d.busy += svc
	d.statsMu.Unlock()
	return start, end, nil
}

// SubmitToQueue performs the data movement for one command issued to a
// specific hardware dispatch queue (hctx). Commands on the same hctx are
// serviced FIFO — one outstanding command at a time — which is what makes
// head-of-line blocking visible when large and small I/Os share a queue
// (the effect the blk-switch scheduler experiment measures). Commands on
// different hctxs proceed in parallel.
func (d *Device) SubmitToQueue(hctx int, op Op, off int64, buf []byte, arrival vtime.Time) (vtime.Time, vtime.Time, error) {
	if hctx < 0 || hctx >= len(d.hctx) {
		hctx = hctx % len(d.hctx)
		if hctx < 0 {
			hctx += len(d.hctx)
		}
	}
	var err error
	if op == Read {
		_, err = d.store.ReadAt(buf, off)
	} else {
		_, err = d.store.WriteAt(buf, off)
	}
	if err != nil {
		return arrival, arrival, err
	}
	svc := d.ServiceTime(op, off, len(buf))
	end := d.hctx[hctx].Acquire(arrival, svc)
	start := end.Add(-svc)

	d.statsMu.Lock()
	if op == Read {
		d.reads++
		d.bytesRead += int64(len(buf))
	} else {
		d.writes++
		d.bytesWrote += int64(len(buf))
	}
	d.busy += svc
	d.statsMu.Unlock()
	return start, end, nil
}

// QueueHorizon returns the virtual time at which the given hardware queue
// drains, a proxy for its current load used by queue-steering schedulers.
func (d *Device) QueueHorizon(hctx int) vtime.Time {
	if hctx < 0 || hctx >= len(d.hctx) {
		return 0
	}
	return d.hctx[hctx].Horizon()
}

// ReadAt / WriteAt provide plain functional access without virtual-time
// accounting, for tools and recovery paths.
func (d *Device) ReadAt(p []byte, off int64) (int, error)  { return d.store.ReadAt(p, off) }
func (d *Device) WriteAt(p []byte, off int64) (int, error) { return d.store.WriteAt(p, off) }

// Trim forwards to the sparse store.
func (d *Device) Trim(off, n int64) error { return d.store.Trim(off, n) }

// Stats returns cumulative op counts, bytes moved, and modeled busy time.
func (d *Device) Stats() (reads, writes, bytesRead, bytesWritten int64, busy vtime.Duration) {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.reads, d.writes, d.bytesRead, d.bytesWrote, d.busy
}

// Horizon returns the virtual time at which the device becomes idle.
func (d *Device) Horizon() vtime.Time { return d.server.Horizon() }
