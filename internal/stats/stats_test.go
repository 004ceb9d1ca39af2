package stats

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 6, 8} {
		s.Observe(x)
	}
	if s.Count() != 4 {
		t.Fatalf("count %d", s.Count())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 20 {
		t.Fatalf("sum %v", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Count() != 0 {
		t.Fatal("empty summary must be zero")
	}
}

func TestSummaryConcurrent(t *testing.T) {
	var s Summary
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Observe(1)
			}
		}()
	}
	wg.Wait()
	if s.Count() != 4000 || s.Mean() != 1 {
		t.Fatalf("concurrent: count=%d mean=%v", s.Count(), s.Mean())
	}
}

func TestSamplePercentiles(t *testing.T) {
	p := NewSample(100)
	for i := 1; i <= 100; i++ {
		p.Observe(float64(i))
	}
	if p.Percentile(50) != 50 {
		t.Fatalf("p50 = %v", p.Percentile(50))
	}
	if p.Percentile(99) != 99 {
		t.Fatalf("p99 = %v", p.Percentile(99))
	}
	if p.Min() != 1 || p.Max() != 100 {
		t.Fatalf("min/max %v/%v", p.Min(), p.Max())
	}
	if p.Mean() != 50.5 {
		t.Fatalf("mean %v", p.Mean())
	}
	// Observing after a percentile query re-sorts correctly.
	p.Observe(1000)
	if p.Max() != 1000 {
		t.Fatalf("max after new observation: %v", p.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	p := NewSample(0)
	if p.Percentile(50) != 0 || p.Mean() != 0 || p.Count() != 0 {
		t.Fatal("empty sample must be zero")
	}
}

func TestSamplePercentileMonotonicQuick(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		p := NewSample(len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			p.Observe(x)
		}
		last := math.Inf(-1)
		for q := 0.0; q <= 100; q += 10 {
			v := p.Percentile(q)
			if v < last {
				return false
			}
			last = v
		}
		// Percentiles are always actual observations (nearest-rank).
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return p.Percentile(50) == sorted[int(math.Ceil(0.5*float64(len(sorted))))-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(100) // bucket [64,128)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Mean() != 100 {
		t.Fatalf("mean %v", h.Mean())
	}
	q := h.Quantile(0.5)
	if q < 64 || q > 128 {
		t.Fatalf("median %v outside bucket", q)
	}
}

func TestHistogramMaxExact(t *testing.T) {
	var h Histogram
	for _, x := range []float64{3, 100, 42} {
		h.Observe(x)
	}
	if h.Max() != 100 {
		t.Fatalf("max %v, want exact 100", h.Max())
	}
}

func TestHistogramQuantileClampedToMax(t *testing.T) {
	// 100 lands in bucket [64,128); without clamping, Quantile(1) would
	// report the interpolated upper bound 128 — beyond any observation.
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(100)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("q=1 reports %v, want exact max 100", q)
	}
	if q := h.Quantile(0.999); q > 100 {
		t.Fatalf("q=0.999 reports %v, beyond the max observation", q)
	}
	// A single observation: every quantile is that observation.
	var one Histogram
	one.Observe(9)
	if q := one.Quantile(0.5); q > 9 {
		t.Fatalf("single-observation median %v > 9", q)
	}
	if q := one.Quantile(1); q != 9 {
		t.Fatalf("single-observation max %v, want 9", q)
	}
	if (&Histogram{}).Quantile(1) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}

func TestHistogramMinExact(t *testing.T) {
	var h Histogram
	if h.Min() != 0 {
		t.Fatalf("empty min %v", h.Min())
	}
	for _, x := range []float64{50, 3, 100} {
		h.Observe(x)
	}
	if h.Min() != 3 {
		t.Fatalf("min %v, want exact 3", h.Min())
	}
}

func TestHistogramStateDelta(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(10) // bucket [8,16)
	}
	before := h.State()
	for i := 0; i < 100; i++ {
		h.Observe(1000) // bucket [512,1024)
	}
	// The lifetime median straddles the two populations, but the delta
	// since `before` contains only the slow ones.
	d := h.State().Delta(before)
	if d.Count != 100 {
		t.Fatalf("delta count %d", d.Count)
	}
	if q := d.Quantile(0.5); q < 512 || q > 1000 {
		t.Fatalf("delta median %v, want within [512,1000]", q)
	}
	if m := d.Mean(); m != 1000 {
		t.Fatalf("delta mean %v", m)
	}
	// Delta of identical snapshots is empty.
	s := h.State()
	if e := s.Delta(s); e.Count != 0 || e.Quantile(0.99) != 0 {
		t.Fatalf("self-delta not empty: %+v", e)
	}
	// State quantiles agree with the histogram's own.
	if h.State().Quantile(0.99) != h.Quantile(0.99) {
		t.Fatal("State().Quantile disagrees with Quantile")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Count() != 1 {
		t.Fatal("negative observation dropped")
	}
	if q := h.Quantile(0.5); q < 0 || q > 1 {
		t.Fatalf("clamped observation quantile %v", q)
	}
}

func TestThroughputAndMBps(t *testing.T) {
	if Throughput(100, 2) != 50 {
		t.Fatal("Throughput")
	}
	if Throughput(100, 0) != 0 {
		t.Fatal("Throughput zero-division")
	}
	if MBps(2<<20, 2) != 1 {
		t.Fatal("MBps")
	}
	if MBps(1, 0) != 0 {
		t.Fatal("MBps zero-division")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"Name", "Value"}}
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("table has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Fatalf("separator line: %q", lines[1])
	}
}
