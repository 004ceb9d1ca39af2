package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"labstor/internal/telemetry"
)

// sink receives every timed call: the timed run's recorder or the traced
// run's tracer.
type sink interface {
	observe(c *call, t0, t1 time.Time, ok bool)
}

// runner drives one client: it takes steps from the generator, issues their
// calls at one entry point, checks every reply against the model and hands
// the timing to the sink. The clock is read only around the call itself, so
// generating and checking the bytes is in the loop but not in the latency.
type runner struct {
	w      *spec
	m      *model
	gen    generator
	do     func(*call) reply
	window func([]call, []reply) // set where a step's calls travel together
	sink   sink
	check  bool

	calls     []call
	replies   []reply
	attempted uint64
	failed    uint64
	wrong     uint64
	// Bytes the client asked the system to read and to write.
	userRead, userWritten int64
}

// step issues the next step's calls and returns when the last one ended.
// Without a sink nothing is timed and the clock is not read.
func (r *runner) step() (t1 time.Time) {
	r.calls = r.gen.next(r.calls[:0])
	timed := r.sink != nil
	var t0 time.Time
	if r.window != nil {
		for len(r.replies) < len(r.calls) {
			r.replies = append(r.replies, reply{})
		}
		if timed {
			t0 = time.Now()
		}
		r.window(r.calls, r.replies)
		if timed {
			t1 = time.Now()
		}
		for i := range r.calls {
			r.finish(&r.calls[i], r.replies[i], t0, t1)
		}
		return t1
	}
	for i := range r.calls {
		c := &r.calls[i]
		if timed {
			t0 = time.Now()
		}
		rep := r.do(c)
		if timed {
			t1 = time.Now()
		}
		r.finish(c, rep, t0, t1)
	}
	return t1
}

func (r *runner) finish(c *call, rep reply, t0, t1 time.Time) {
	ok := rep.err == nil
	if r.check {
		var wrong bool
		if ok, wrong = r.m.check(r.w, c, rep); wrong {
			r.wrong++
		}
	}
	r.attempted++
	if !ok {
		r.failed++
	}
	switch classOf(c.op) {
	case classRead:
		r.userRead += int64(r.w.unitSize())
	case classWrite:
		r.userWritten += int64(len(c.buf))
	}
	if r.sink != nil {
		r.sink.observe(c, t0, t1, ok)
	}
}

// --- the timed run ------------------------------------------------------------

// slices is how many equal parts the measured window is cut into. Rates and
// latency percentiles are taken per slice and the median slice is reported,
// so a stall that a neighbour on the host causes in a few slices does not
// move the result.
const slices = 20

// recorder is one client's measurements. Only its client writes to it.
type recorder struct {
	start time.Time
	slice time.Duration
	lat   [slices][nClasses]hist
	done  [slices]uint64 // calls that finished without failure
}

func (rec *recorder) observe(c *call, t0, t1 time.Time, ok bool) {
	if !ok {
		return
	}
	i := int(t1.Sub(rec.start) / rec.slice)
	if i >= slices {
		i = slices - 1
	}
	rec.lat[i][classOf(c.op)].add(int64(t1.Sub(t0)), 1)
	rec.done[i]++
}

// usage is the process's cumulative resource use.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	copies  int64
	gcs     uint32
	pause   time.Duration
}

// since returns the use between an earlier reading and u.
func (u usage) since(b usage) usage {
	return usage{cpu: u.cpu - b.cpu, mallocs: u.mallocs - b.mallocs, bytes: u.bytes - b.bytes,
		copies: u.copies - b.copies, gcs: u.gcs - b.gcs, pause: u.pause - b.pause}
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	copies, _ := telemetry.CopyTotals()
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		copies:  copies,
		gcs:     ms.NumGC,
		pause:   time.Duration(ms.PauseTotalNs),
	}
}

// timedResult is what one measured window produced.
type timedResult struct {
	seconds   float64 // from the first call's start to the last call's end
	slice     float64 // seconds per slice
	attempted uint64
	failed    uint64
	wrong     uint64
	ops       uint64 // calls that finished without failure
	perSlice  [slices]struct {
		ops uint64
		lat [nClasses + 1]hist // by class, then all classes together
	}
	whole [nClasses + 1]hist
	use   usage // resource use over the window
}

const allClasses = int(nClasses)

// clientRunner builds the runner of client i at the workload's own entry
// point: the facade in process, Conn.Do or Conn.Pipeline over TCP.
func (sys *system) clientRunner(i int, seed int64) (*runner, error) {
	w := sys.w
	r := &runner{w: w, m: sys.m, check: true,
		gen: newGenerator(w, sys.lay, sys.m, seed, i, w.Clients, w.Window)}
	if w.Transport == "inproc" {
		f, err := newFacade(sys.sess[i], sys.lay)
		if err != nil {
			return nil, err
		}
		r.do = f.do
		return r, nil
	}
	t := &wire{conn: sys.conns[i]}
	if w.Window > 1 {
		r.window = t.window
	} else {
		r.do = t.do
	}
	return r, nil
}

// runTimed runs every client in a closed loop for d and returns what they
// measured. Clients start together and each stops at the first step that
// ends after the deadline.
func (sys *system) runTimed(runners []*runner, d time.Duration) *timedResult {
	recs := make([]*recorder, len(runners))
	for i, r := range runners {
		recs[i] = &recorder{slice: d / slices}
		r.sink = recs[i]
		r.attempted, r.failed, r.wrong = 0, 0, 0
	}
	before := readUsage()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, r := range runners {
		recs[i].start = start
		wg.Add(1)
		go func(r *runner) {
			defer wg.Done()
			for r.step().Before(deadline) {
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := readUsage()

	res := &timedResult{seconds: elapsed.Seconds(), slice: d.Seconds() / slices}
	res.use = after.since(before)
	for i, r := range runners {
		res.attempted += r.attempted
		res.failed += r.failed
		res.wrong += r.wrong
		for s := 0; s < slices; s++ {
			ps := &res.perSlice[s]
			ps.ops += recs[i].done[s]
			res.ops += recs[i].done[s]
			for c := 0; c < allClasses; c++ {
				h := &recs[i].lat[s][c]
				ps.lat[c].merge(h)
				ps.lat[allClasses].merge(h)
				res.whole[c].merge(h)
				res.whole[allClasses].merge(h)
			}
		}
	}
	return res
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     uint64  // samples behind a timing, 0 where that has no meaning
}

type metrics map[string]metric

func (ms metrics) set(name string, v float64, unit string, n uint64) {
	ms[name] = metric{Value: v, Unit: unit, n: n}
}

// endToEnd turns a measured window into the end-to-end metrics.
func (res *timedResult) endToEnd(setup float64) metrics {
	ms := metrics{}
	var rate []float64
	quant := map[string][]float64{}
	for s := range res.perSlice {
		ps := &res.perSlice[s]
		rate = append(rate, float64(ps.ops)/res.slice)
		for _, p := range percentiles {
			quant[p.name] = append(quant[p.name], ps.lat[p.class].quantile(p.q)/1e3)
		}
	}
	ops := float64(res.ops)
	ms.set("ops_per_s", median(rate), "1/s", res.ops)
	for _, p := range percentiles {
		ms.set(p.name, median(quant[p.name]), "us", res.whole[p.class].n)
	}
	ms.set("cpu_us_per_op", float64(res.use.cpu.Microseconds())/ops, "us", res.ops)
	ms.set("allocs_per_op", float64(res.use.mallocs)/ops, "count", res.ops)
	ms.set("alloc_bytes_per_op", float64(res.use.bytes)/ops, "B", res.ops)
	ms.set("copies_per_op", float64(res.use.copies)/ops, "count", res.ops)
	ms.set("rss_peak_mb", peakRSSMB(), "MB", 0)
	ms.set("setup_s", setup, "s", 0)
	return ms
}

var percentiles = []struct {
	name  string
	class int
	q     float64
}{
	{"lat_p50_us", allClasses, 0.50},
	{"lat_p95_us", allClasses, 0.95},
	{"read_p50_us", int(classRead), 0.50},
	{"read_p95_us", int(classRead), 0.95},
	{"write_p50_us", int(classWrite), 0.50},
	{"write_p95_us", int(classWrite), 0.95},
}

// clientDiagnostics are the timed run's numbers that are too unsteady to
// carry a bound: the far tail, and whole-window throughput, which unlike the
// median slice also counts the system's own periodic stalls.
func (res *timedResult) clientDiagnostics(ms metrics) {
	all := &res.whole[allClasses]
	ms.set("client.lat_p99_us", all.quantile(0.99)/1e3, "us", all.n)
	ms.set("client.lat_p999_us", all.quantile(0.999)/1e3, "us", all.n)
	ms.set("client.lat_max_us", float64(all.max)/1e3, "us", all.n)
	ms.set("client.window_ops_per_s", float64(res.ops)/res.seconds, "1/s", res.ops)
	ms.set("client.fail_ratio", float64(res.failed)/float64(res.attempted), "ratio", res.attempted)
	ms.set("go.gc_cycles_per_mop", float64(res.use.gcs)/float64(res.ops)*1e6, "count", res.ops)
	ms.set("go.gc_pause_us_per_kop", float64(res.use.pause.Microseconds())/float64(res.ops)*1e3, "us", res.ops)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func (res *timedResult) String() string {
	return fmt.Sprintf("%.2f s, %d calls, %d failed, %d wrong", res.seconds, res.attempted, res.failed, res.wrong)
}
