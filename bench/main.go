// Command bench is the repository's one benchmark: four closed-loop
// workloads timed from outside the system, the same end-to-end metrics on
// each, and a traced run that prices every layer. See README.md.
//
//	go run ./bench -workload kv_hot -seed 1
//	go run ./bench -workload all
//	go run ./bench -agree
//
// The driver's form is  bash bench/run.sh --workload W --seed N --seconds S
// --trace 0|1 ; the last line of standard output is then one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is how one workload is run.
type config struct {
	seed    int64
	seconds float64 // measured window
	warmup  float64
	// trace selects what is run and reported: 0 the timed run and the
	// end-to-end metrics, 1 a half-length timed run, the traced run and the
	// per-layer metrics, -1 both in full.
	trace    int
	setups   int    // times the system is set up; setup_s is their median
	traceOps int    // calls per rung of the traced run; 0 keeps the workload's
	outDir   string // where the trace file goes
}

// endToEndNames are the end-to-end metrics, in print order. fail_ratio is
// not among them: it is 0 on a healthy run, which a relative bound cannot
// hold, so it travels as the result's attempted and failed counts and as the
// per-layer client.fail_ratio.
var endToEndNames = []string{
	"ops_per_s", "lat_p50_us", "lat_p95_us", "read_p50_us", "read_p95_us", "write_p50_us", "write_p95_us",
	"cpu_us_per_op", "allocs_per_op", "alloc_bytes_per_op", "copies_per_op", "rss_peak_mb", "setup_s",
}

// result is one run of one workload.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`

	endToEnd  metrics
	perLayer  metrics
	tracePath string
	prov      provenance
}

// provenance says what produced a result.
type provenance struct {
	Workload        spec              `json:"workload"`
	Seed            int64             `json:"seed"`
	MeasuredSeconds float64           `json:"measured_seconds"`
	WarmupSeconds   float64           `json:"warmup_seconds"`
	Slices          int               `json:"slices"`
	Setups          int               `json:"setups"`
	Samples         map[string]uint64 `json:"samples"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
	NumCPU          int               `json:"nproc"`
	GoVersion       string            `json:"go_version"`
	Commit          string            `json:"commit"`
	Dirty           bool              `json:"dirty"`
}

// runWorkload sets the workload's system up, warms it, measures it, and
// with tracing on climbs the ladder.
func runWorkload(w *spec, cfg config) (*result, error) {
	if cfg.traceOps > 0 {
		scaled := *w
		scaled.TraceOps = cfg.traceOps
		w = &scaled
	}
	var sys *system
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.close()
			runtime.GC() // the next set-up starts from the same heap as the first
		}
		start := time.Now()
		var err error
		if sys, err = buildSystem(w, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { sys.close() }()

	runners := make([]*runner, w.Clients)
	for i := range runners {
		var err error
		if runners[i], err = sys.clientRunner(i, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	seconds := cfg.seconds
	if cfg.trace == 1 {
		seconds /= 2
	}
	warm := sys.runTimed(runners, time.Duration(cfg.warmup*float64(time.Second)))
	timed := sys.runTimed(runners, time.Duration(seconds*float64(time.Second)))
	if timed.ops == 0 {
		return nil, fmt.Errorf("no call succeeded in the measured window (%s)", timed)
	}
	if err := sys.shardShares(); err != nil {
		return nil, err
	}

	res := &result{Attempted: timed.attempted, Failed: timed.failed, Metrics: metrics{}}
	wrong := warm.wrong + timed.wrong
	res.endToEnd = timed.endToEnd(median(setups))
	if cfg.trace != 0 {
		// The timed run ends when the clock says so; the traced run starts
		// from a fresh system so that its counts depend on the seed alone.
		sys.close()
		var err error
		if sys, err = buildSystem(w, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up for the traced run: %w", err)
		}
		tr := newTracer()
		l := &ladder{sys: sys, seed: cfg.seed, tr: tr}
		if res.perLayer, err = l.run(); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		timed.clientDiagnostics(res.perLayer)
		for _, m := range perLayer {
			if _, ok := res.perLayer[m[0]]; !ok {
				res.perLayer.set(m[0], 0, m[1], 0)
			}
		}
		res.Attempted += l.attempted
		res.Failed += l.failed
		wrong += l.wrong
		if res.tracePath, err = tr.write(cfg.outDir, w.Name, cfg.seed); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
	}
	res.Correct = wrong == 0

	samples := map[string]uint64{}
	report := func(ms metrics) {
		for name, m := range ms {
			res.Metrics[name] = m
			if m.n > 0 {
				samples[name] = m.n
			}
		}
	}
	if cfg.trace != 1 {
		report(res.endToEnd)
	}
	if cfg.trace != 0 {
		report(res.perLayer)
	}
	commit, dirty := gitState()
	res.prov = provenance{
		Workload: *w, Seed: cfg.seed, MeasuredSeconds: timed.seconds, WarmupSeconds: cfg.warmup,
		Slices: slices, Setups: cfg.setups, Samples: samples,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit, Dirty: dirty,
	}
	return res, nil
}

// shardShares fails a routed run in which a shard carried under a quarter
// of the calls: the workload would no longer be the one it is named for.
func (sys *system) shardShares() error {
	if sys.router == nil {
		return nil
	}
	c := sys.counts()
	var total int64
	for _, n := range c.perBackend {
		total += n
	}
	for i, n := range c.perBackend {
		if len(c.perBackend) < sys.w.Shards || n*4 < total {
			return fmt.Errorf("shard %d carried %d of %d calls, under a quarter", i, n, total)
		}
	}
	return nil
}

// gitState returns the checkout's commit and whether the tree differs from
// it; "unknown" where there is no git checkout.
func gitState() (commit string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, _ := exec.Command("git", "status", "--porcelain").Output() // no status: report clean
	return strings.TrimSpace(string(out)), len(bytes.TrimSpace(status)) > 0
}

// print writes the human-readable report and, last, the JSON result line.
func (res *result) print(out io.Writer, w *spec) error {
	fmt.Fprintf(out, "workload %s  seed %d  — %s\n", w.Name, res.prov.Seed, w.Why)
	table := func(title string, names []string, ms metrics) {
		if ms == nil {
			return
		}
		fmt.Fprintln(out, title)
		for _, name := range names {
			m := ms[name]
			n := ""
			if m.n > 0 {
				n = fmt.Sprintf("n=%d", m.n)
			}
			fmt.Fprintf(out, "  %-34s %16.4f %-6s %s\n", name, m.Value, m.Unit, n)
		}
	}
	if _, ok := res.Metrics[endToEndNames[0]]; ok {
		table(fmt.Sprintf("end-to-end (tracing off, %.1f s measured, median of %d slices)",
			res.prov.MeasuredSeconds, slices), endToEndNames, res.endToEnd)
	}
	if res.perLayer != nil {
		var names []string
		for _, m := range perLayer {
			names = append(names, m[0])
		}
		table(fmt.Sprintf("per-layer (traced run, %d calls per rung; 0 = rung not on this workload's path)",
			w.TraceOps), names, res.perLayer)
		fmt.Fprintf(out, "trace file %s\n", res.tracePath)
	}
	prov, err := json.Marshal(res.prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "provenance %s\n", prov)
	fmt.Fprintf(out, "calls %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	workload := flag.String("workload", "all", "kv_hot, fs_sync, kv_pipe, kv_routed, or all")
	seed := flag.Int64("seed", 1, "seed of every key, op choice and payload")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
	agree := flag.Bool("agree", false, "run every workload twice and compare the runs with the bounds in BENCHMARK.json")
	flag.Parse()

	var err error
	switch {
	case *agree:
		err = runAgree(*seed, *seconds)
	case *workload == "all":
		err = runAll(*seed, *seconds, *trace)
	default:
		err = runOne(*workload, config{seed: *seed, seconds: *seconds, warmup: 2, trace: *trace, setups: 5,
			outDir: filepath.Join("bench", "out")})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runOne(name string, cfg config) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout, w); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: the system returned wrong bytes or a wrong result", name)
	}
	return nil
}

// child runs one workload in a fresh process of this program, so each starts
// with clean process-wide pools, counters and peak memory. It returns the
// child's standard output, which echo also copies to this process's.
func child(echo bool, workload string, seed int64, seconds float64, trace int) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	cmd.Stdout = &out
	if echo {
		cmd.Stdout = io.MultiWriter(&out, os.Stdout)
	}
	err = cmd.Run()
	return out.Bytes(), err
}

func runAll(seed int64, seconds float64, trace int) error {
	var failed []string
	for _, w := range workloads {
		if _, err := child(true, w.Name, seed, seconds, trace); err != nil {
			failed = append(failed, w.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// --- agreement of two sets of runs -----------------------------------------------

// manifest is the part of BENCHMARK.json the benchmark reads back.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCount reports whether a per-layer metric is a count that must repeat
// exactly: the traced run is single-threaded, bounded by a call count and
// starts from a fresh system, so what it asks of the device, the cache and
// the wire depends on the seed alone.
func exactCount(name string) bool {
	return strings.HasPrefix(name, "device.") && !strings.HasSuffix(name, "_ns") ||
		strings.HasPrefix(name, "copy.") || name == "lru.hit_ratio" || name == "serve.frames_in_per_op"
}

func runChild(workload string, seed int64, seconds float64, trace int) (*result, error) {
	out, err := child(false, workload, seed, seconds, trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &res, nil
}

// runAgree runs every workload twice on this tree, timed and traced, and
// fails when an end-to-end metric differs between the two by more than its
// bound or an exact count differs at all.
func runAgree(seed int64, seconds float64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bad := 0
	for _, w := range workloads {
		var runs [2][2]*result // [trace][repeat]
		for trace := 0; trace < 2; trace++ {
			for rep := 0; rep < 2; rep++ {
				if runs[trace][rep], err = runChild(w.Name, seed, seconds, trace); err != nil {
					return err
				}
			}
		}
		fmt.Printf("%s\n  %-22s %14s %14s %8s %7s\n", w.Name, "end-to-end", "run 1", "run 2", "differ", "bound")
		for _, m := range mf.EndToEnd {
			a, b := runs[0][0].Metrics[m.Name].Value, runs[0][1].Metrics[m.Name].Value
			diff := math.Abs(b-a) / math.Min(a, b)
			verdict := ""
			switch {
			case diff <= m.Bound:
			case m.Name == "setup_s":
				// A set-up lasts 50-170 ms, less than one of the host's speed
				// steps; only its median over many runs is steady.
				verdict = "  (not gated on single runs)"
			default:
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("  %-22s %14.4f %14.4f %7.2f%% %6.1f%%%s\n", m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
		var names []string
		for name := range runs[1][0].Metrics {
			if exactCount(name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := runs[1][0].Metrics[name].Value, runs[1][1].Metrics[name].Value
			if a != b {
				fmt.Printf("  %-34s %v != %v  COUNT DIFFERS\n", name, a, b)
				bad++
			}
		}
		fmt.Printf("  %d traced-run counts compared\n", len(names))
		for trace := range runs {
			for _, r := range runs[trace] {
				if r.Failed > 0 || !r.Correct {
					fmt.Printf("  a run had %d failed calls, correct=%v\n", r.Failed, r.Correct)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d disagreements", bad)
	}
	return nil
}
