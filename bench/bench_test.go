package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// A short pass of every workload, timed and traced: it reports exactly the
// metrics BENCHMARK.json names, each finite and in the named unit, and no
// call fails. Nothing here depends on how fast the host is.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(w, config{seed: 1, seconds: 0.5, warmup: 0.1, trace: -1, setups: 1,
				traceOps: 2000, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
				want[m.Name] = m.Unit
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s: not reported", name)
				case m.Unit != unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %v", name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s: reported but not in BENCHMARK.json", name)
				}
			}
			for _, name := range endToEndNames {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %v, end-to-end metrics are never 0", name, res.Metrics[name].Value)
				}
			}
			if _, err := os.Stat(res.tracePath); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// sequenceHash folds the first n calls of client 0's sequence into one
// number: which op, on what, where, and the first payload word.
func sequenceHash(w *spec, seed int64, n int) uint64 {
	mounts := make([]string, w.Mounts)
	for i := range mounts {
		mounts[i] = fmt.Sprintf("m%d", i)
	}
	g := newGenerator(w, newLayout(w, mounts), newModel(seed, w.units()), seed, 0, w.Clients, w.Window)
	h := fnv.New64a()
	var calls []call
	for seen := 0; seen < n; {
		calls = g.next(calls[:0])
		for i := range calls {
			c := &calls[i]
			fmt.Fprintf(h, "%d|%s|%s|%d|%d|", c.op, c.path, c.key, c.off, c.unit)
			if c.op.IsWrite() {
				h.Write(c.buf[:8])
			}
			seen++
		}
	}
	return h.Sum64()
}

func TestSameSeedSameSequence(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := sequenceHash(w, 7, 5000), sequenceHash(w, 7, 5000), sequenceHash(w, 8, 5000)
		if a != b {
			t.Errorf("%s: seed 7 gave two sequences", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave one sequence", w.Name)
		}
	}
}

func TestStampsTellVersionsAndPlacesApart(t *testing.T) {
	m := newModel(3, 4)
	buf := make([]byte, 4096)
	m.stampNext(buf, 2)
	if !m.matches(buf, 2) {
		t.Fatal("a fresh stamp does not match its own unit")
	}
	m.ver[1] = 1
	if m.matches(buf, 1) {
		t.Error("unit 1 accepted unit 2's bytes")
	}
	buf[4095] ^= 1
	if m.matches(buf, 2) {
		t.Error("a flipped last byte went unseen")
	}
	buf[4095] ^= 1
	m.ver[2]++
	if m.matches(buf, 2) {
		t.Error("a stale version went unseen")
	}
}

func TestQuantilesOfAKnownSample(t *testing.T) {
	var h hist
	for v := int64(1); v <= 200; v++ { // the exact range: one bucket per nanosecond
		h.add(v, 1)
	}
	if got := h.quantile(0.5); math.Abs(got-100) > 1 {
		t.Errorf("median of 1..200 ns = %v", got)
	}
	h = hist{}
	for v := int64(1); v <= 100000; v++ { // 1 us .. 100 ms, uniform
		h.add(v*1000, 1)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := q * 100000 * 1000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.2f = %v, want %v within 1%%", q, got, want)
		}
	}
	if h.max != 100000*1000 || h.n != 100000 {
		t.Errorf("max %d n %d", h.max, h.n)
	}
	if got := median([]float64{5, math.NaN(), 1, 3, 9}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}
