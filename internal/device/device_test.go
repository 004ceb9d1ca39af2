package device

import (
	"bytes"
	"testing"
	"testing/quick"

	"labstor/internal/vtime"
)

func TestSparseStoreRoundTrip(t *testing.T) {
	s := NewSparseStore(1 << 20)
	data := []byte("hello sparse world")
	if _, err := s.WriteAt(data, 12345); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := s.ReadAt(buf, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("got %q", buf)
	}
}

func TestSparseStoreHolesReadZero(t *testing.T) {
	s := NewSparseStore(1 << 20)
	buf := []byte{1, 2, 3, 4}
	if _, err := s.ReadAt(buf, 5000); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole read nonzero")
		}
	}
}

func TestSparseStoreCrossChunk(t *testing.T) {
	s := NewSparseStore(1 << 20)
	data := make([]byte, 3*chunkSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	off := int64(chunkSize - 100) // straddles chunk boundaries
	if _, err := s.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := s.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("cross-chunk mismatch")
	}
}

func TestSparseStoreBounds(t *testing.T) {
	s := NewSparseStore(1024)
	if _, err := s.WriteAt([]byte{1}, 1024); err == nil {
		t.Fatal("write past capacity succeeded")
	}
	if _, err := s.ReadAt(make([]byte, 2), 1023); err == nil {
		t.Fatal("read past capacity succeeded")
	}
	if _, err := s.WriteAt([]byte{1}, -1); err == nil {
		t.Fatal("negative offset succeeded")
	}
}

func TestSparseStoreMaterializationAndTrim(t *testing.T) {
	s := NewSparseStore(16 << 20)
	if s.Materialized() != 0 {
		t.Fatal("fresh store materialized")
	}
	s.WriteAt(make([]byte, chunkSize), 0)
	if s.Materialized() != chunkSize {
		t.Fatalf("materialized %d", s.Materialized())
	}
	if err := s.Trim(0, chunkSize); err != nil {
		t.Fatal(err)
	}
	if s.Materialized() != 0 {
		t.Fatal("trim did not release chunk")
	}
	buf := make([]byte, 8)
	s.ReadAt(buf, 0)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("trimmed range reads nonzero")
		}
	}
}

func TestSparseStoreQuickRoundTrip(t *testing.T) {
	s := NewSparseStore(1 << 20)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if _, err := s.WriteAt(data, int64(off)); err != nil {
			return false
		}
		buf := make([]byte, len(data))
		if _, err := s.ReadAt(buf, int64(off)); err != nil {
			return false
		}
		return bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesAndClasses(t *testing.T) {
	for _, c := range []Class{HDD, SATASSD, NVMe, PMEM} {
		p := ProfileFor(c)
		if p.Class != c {
			t.Fatalf("ProfileFor(%v).Class = %v", c, p.Class)
		}
		if c.String() == "" {
			t.Fatal("class string")
		}
	}
	if !PMEMProfile.ByteAddressable || NVMeProfile.ByteAddressable {
		t.Fatal("byte-addressability flags")
	}
	if NVMeProfile.AccessLatency >= SATASSDProfile.AccessLatency {
		t.Fatal("NVMe must be faster than SATA")
	}
	if SATASSDProfile.AccessLatency >= HDDProfile.AvgSeek {
		t.Fatal("SSD access must beat a disk seek")
	}
}

func TestServiceTimeScalesWithSize(t *testing.T) {
	d := New("nvme", NVMe, 1<<30)
	small := d.ServiceTime(Write, 0, 4096)
	large := d.ServiceTime(Write, 4096, 1<<20)
	if large <= small {
		t.Fatalf("service time must grow with transfer size: %v vs %v", small, large)
	}
}

func TestHDDSequentialVsRandom(t *testing.T) {
	d := New("hdd", HDD, 1<<30)
	first := d.ServiceTime(Write, 0, 4096) // new stream: seek
	seq := d.ServiceTime(Write, 4096, 4096)
	rnd := d.ServiceTime(Write, 500*4096, 4096)
	if seq >= rnd {
		t.Fatalf("sequential (%v) must be cheaper than random (%v)", seq, rnd)
	}
	if first <= seq {
		t.Fatalf("first access (%v) must pay positioning over sequential (%v)", first, seq)
	}
	// Two interleaved sequential streams both stay cheap.
	d2 := New("hdd2", HDD, 1<<30)
	d2.ServiceTime(Write, 0, 4096)
	d2.ServiceTime(Write, 1<<20, 4096)
	a := d2.ServiceTime(Write, 4096, 4096)
	b := d2.ServiceTime(Write, 1<<20+4096, 4096)
	if a != b || a >= rnd {
		t.Fatalf("interleaved streams penalized: %v %v", a, b)
	}
}

func TestDeviceSubmitFunctional(t *testing.T) {
	d := New("nvme", NVMe, 1<<30)
	data := []byte("persisted")
	_, end, err := d.Submit(Write, 4096, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("no modeled service time")
	}
	buf := make([]byte, len(data))
	_, end2, err := d.Submit(Read, 4096, buf, end)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read mismatch")
	}
	if end2 <= end {
		t.Fatal("read completion must be after submission")
	}
	r, w, br, bw, busy := d.Stats()
	if r != 1 || w != 1 || br != int64(len(data)) || bw != int64(len(data)) || busy <= 0 {
		t.Fatalf("stats: %d %d %d %d %v", r, w, br, bw, busy)
	}
}

func TestDeviceHctxFIFO(t *testing.T) {
	d := New("nvme", NVMe, 1<<30)
	buf := make([]byte, 4096)
	// Two commands on the same hctx serialize.
	_, e1, _ := d.SubmitToQueue(3, Write, 0, buf, 0)
	_, e2, _ := d.SubmitToQueue(3, Write, 8192, buf, 0)
	if e2 <= e1 {
		t.Fatalf("same-hctx commands overlapped: %v %v", e1, e2)
	}
	// A command on another hctx proceeds in parallel.
	_, e3, _ := d.SubmitToQueue(4, Write, 16384, buf, 0)
	if e3 != e1 {
		t.Fatalf("cross-hctx command serialized: %v vs %v", e3, e1)
	}
	if d.QueueHorizon(3) <= d.QueueHorizon(4) {
		t.Fatal("loaded queue horizon must exceed idle queue")
	}
	if d.HardwareQueues() != NVMeProfile.HardwareQueues {
		t.Fatal("queue count")
	}
}

func TestDeviceSoonestQueue(t *testing.T) {
	d := New("nvme", NVMe, 1<<30)
	buf := make([]byte, 4096)
	// Every queue idle: a tie keeps the caller's own queue.
	if got := d.SoonestQueue(3); got != 3 {
		t.Fatalf("tie: SoonestQueue(3) = %d, want 3", got)
	}
	// Own queue and queue 0 loaded: queue 1 is the lowest strictly earlier.
	d.SubmitToQueue(0, Write, 0, buf, 0)
	d.SubmitToQueue(3, Write, 8192, buf, 0)
	if got := d.SoonestQueue(3); got != 1 {
		t.Fatalf("loaded own: SoonestQueue(3) = %d, want 1", got)
	}
	// An idle own queue ties with the other idle ones and is kept.
	if got := d.SoonestQueue(2); got != 2 {
		t.Fatalf("idle own: SoonestQueue(2) = %d, want 2", got)
	}
}

func TestDeviceHctxModuloMapping(t *testing.T) {
	d := New("ssd", SATASSD, 1<<30) // single hardware queue
	buf := make([]byte, 512)
	if _, _, err := d.SubmitToQueue(99, Write, 0, buf, 0); err != nil {
		t.Fatalf("out-of-range hctx must wrap: %v", err)
	}
	if _, _, err := d.SubmitToQueue(-3, Write, 0, buf, 0); err != nil {
		t.Fatalf("negative hctx must wrap: %v", err)
	}
}

func TestDeviceParallelismBoundsThroughput(t *testing.T) {
	d := New("nvme", NVMe, 1<<30)
	buf := make([]byte, 4096)
	// Pooled submission: first P commands run in parallel, extra queue.
	p := d.Profile.Parallelism
	var maxEnd vtime.Time
	for i := 0; i <= p; i++ {
		_, end, _ := d.Submit(Write, int64(i)*4096, buf, 0)
		if end > maxEnd {
			maxEnd = end
		}
	}
	single := d.ServiceTime(Write, 1<<20, 4096)
	if maxEnd < vtime.Time(single)*2-vtime.Time(single)/2 {
		t.Fatalf("parallelism+1 commands should take ~2 service times, got %v (svc %v)", maxEnd, single)
	}
}

func TestDeviceRawAccessAndTrim(t *testing.T) {
	d := New("nvme", NVMe, 1<<30)
	d.WriteAt([]byte{0xAA}, 100)
	b := make([]byte, 1)
	d.ReadAt(b, 100)
	if b[0] != 0xAA {
		t.Fatal("raw access")
	}
	if err := d.Trim(0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if d.Capacity() != 1<<30 {
		t.Fatal("capacity")
	}
	if d.Class() != NVMe {
		t.Fatal("class")
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("op strings")
	}
}
