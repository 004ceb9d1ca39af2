package obs_test

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	_ "labstor/internal/mods/allmods"
	"labstor/internal/obs"
	"labstor/internal/runtime"
	"labstor/internal/telemetry"
)

// bootBundledRuntime boots a runtime with a breachable error-rate SLO on an
// fs stack plus a latency SLO on a deliberately slow dummy stack, served by
// an obs server with incident capture armed into a test temp dir.
func bootBundledRuntime(t *testing.T, bundle obs.BundleConfig) (*runtime.Runtime, *runtime.Client, *obs.Server, string) {
	t.Helper()
	rt := runtime.New(runtime.Options{
		MaxWorkers:      2,
		PerfSampleEvery: 1,
		SLOCheckEvery:   time.Hour,
		SLOs: []runtime.SLOTarget{
			{Stack: "dummy::/slow", P99US: 100},
			{Stack: "fs::/s", MaxErrRate: 0.2},
		},
	})
	rt.AddDevice(device.New("dev0", device.NVMe, 64<<20))
	if _, err := rt.MountSpec(`
mount: fs::/s
mods:
  - uuid: fs
    type: labstor.labfs
    attrs:
      device: dev0
      log_mb: 4
  - uuid: drv
    type: labstor.kernel_driver
    attrs:
      device: dev0
`); err != nil {
		t.Fatal(err)
	}
	// 2ms of modeled compute per request: p99 far beyond the 100us target.
	if _, err := rt.MountSpec(`
mount: dummy::/slow
mods:
  - uuid: d1
    type: labstor.dummy
    attrs:
      cost_ns: 2000000
`); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Shutdown)

	srv := obs.New(rt, obs.Config{Addr: "127.0.0.1:0", Bundle: bundle})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return rt, rt.Connect(ipc.Credentials{PID: 1, UID: 1000, GID: 1000}), srv, addr
}

// submitN drives n ops against mount; create=false against a missing path
// produces errored completions (the error-rate SLO's fuel).
func submitN(t *testing.T, cli *runtime.Client, mount string, op core.Op, path string, n int, create bool) {
	t.Helper()
	buf := make([]byte, 256)
	for i := 0; i < n; i++ {
		req := core.NewRequest(op)
		req.Path = path
		if create {
			req.Flags = core.FlagCreate
		}
		req.Offset, req.Size, req.Data = int64(i)*256, len(buf), buf
		err := cli.Submit(mount, req)
		if err != nil && create {
			// Errored completions are this helper's point when create is
			// false (missing-path reads fuel the error-rate SLO).
			t.Fatal(err)
		}
	}
}

// waitBundles polls the bundler until it has written want bundles (capture
// runs on a breach-hook goroutine; there is no synchronous handoff to wait
// on from the evaluation call).
func waitBundles(t *testing.T, b *obs.Bundler, want int) []obs.BundleInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := b.List(); len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("bundler wrote %d bundles, want %d", len(b.List()), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBundleCapturedOnBreach is the acceptance criterion end to end: an
// induced SLO breach produces a diagnostic bundle directory holding the CPU
// profile, flight-recorder dump, outlier traces and attribution table.
func TestBundleCapturedOnBreach(t *testing.T) {
	dir := t.TempDir()
	rt, cli, srv, addr := bootBundledRuntime(t, obs.BundleConfig{
		Dir:        dir,
		ProfileDur: 50 * time.Millisecond,
	})

	// Background load so the CPU profile has something to sample, then the
	// breach: the slow stack blows its 100us p99 target.
	submitN(t, cli, "fs::/s", core.OpWrite, "f", 200, true)
	submitN(t, cli, "dummy::/slow", core.OpWrite, "x", 10, true)
	rt.EvaluateSLOs()

	bundles := waitBundles(t, srv.Bundler(), 1)
	b := bundles[0]
	if b.Stack != "dummy::/slow" || b.Err != "" {
		t.Fatalf("bundle = %+v", b)
	}
	for _, name := range []string{"cpu.pprof", "meta.json", "flight.txt", "traces.json", "metrics.json", "attribution.json", "snapshot.json"} {
		st, err := os.Stat(filepath.Join(b.Dir, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if st.Size() == 0 {
			t.Fatalf("bundle artifact %s is empty", name)
		}
	}

	// The trace capture is well-formed JSON carrying the ring split.
	raw, err := os.ReadFile(filepath.Join(b.Dir, "traces.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rings struct {
		Tail    []telemetry.Trace `json:"tail"`
		Errors  []telemetry.Trace `json:"errors"`
		Sampled []telemetry.Trace `json:"sampled"`
	}
	if err := json.Unmarshal(raw, &rings); err != nil {
		t.Fatalf("traces.json: %v", err)
	}
	if len(rings.Sampled) == 0 {
		t.Fatal("traces.json carries no sampled traces despite PerfSampleEvery=1")
	}

	// meta.json pins the breach that triggered capture.
	raw, err = os.ReadFile(filepath.Join(b.Dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Stack string            `json:"stack"`
		SLO   runtime.SLOStatus `json:"slo"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	if meta.Stack != "dummy::/slow" || meta.SLO.OK {
		t.Fatalf("meta.json = %+v", meta)
	}

	// /bundles lists it.
	code, body := get(t, addr, "/bundles")
	if code != http.StatusOK {
		t.Fatalf("/bundles: code %d", code)
	}
	var listing struct {
		Armed   bool             `json:"armed"`
		Bundles []obs.BundleInfo `json:"bundles"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if !listing.Armed || len(listing.Bundles) != 1 || listing.Bundles[0].ID != b.ID {
		t.Fatalf("/bundles = %s", body)
	}

	// The capture is on the flight recorder.
	found := false
	for _, ev := range rt.Events().Filter(telemetry.EvBundle) {
		if ev.Kind == telemetry.EvBundle {
			found = true
		}
	}
	if !found {
		t.Fatal("no obs.bundle flight event recorded")
	}
}

// TestBundleCooldown pins the rate limit: a second breach of the same stack
// inside the cooldown window is skipped, not captured.
func TestBundleCooldown(t *testing.T) {
	dir := t.TempDir()
	rt, cli, srv, _ := bootBundledRuntime(t, obs.BundleConfig{
		Dir:        dir,
		ProfileDur: 10 * time.Millisecond,
		Cooldown:   time.Hour,
	})

	// Breach #1: error rate on fs::/s (missing-path reads all fail).
	submitN(t, cli, "fs::/s", core.OpRead, "missing", 10, false)
	rt.EvaluateSLOs()
	waitBundles(t, srv.Bundler(), 1)

	// Recover (a clean window), then breach again inside the cooldown.
	submitN(t, cli, "fs::/s", core.OpWrite, "f", 50, true)
	rt.EvaluateSLOs()
	submitN(t, cli, "fs::/s", core.OpRead, "missing", 10, false)
	rt.EvaluateSLOs()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Bundler().Skipped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second breach neither captured nor counted as skipped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Bundler().Wait()
	if got := srv.Bundler().List(); len(got) != 1 {
		t.Fatalf("cooldown did not hold: %d bundles", len(got))
	}
}

// TestBundleLifetimeCap pins the global cap: once Max bundles exist, further
// breaches are skipped even across different stacks.
func TestBundleLifetimeCap(t *testing.T) {
	dir := t.TempDir()
	rt, cli, srv, _ := bootBundledRuntime(t, obs.BundleConfig{
		Dir:        dir,
		ProfileDur: 10 * time.Millisecond,
		Cooldown:   time.Millisecond,
		Max:        1,
	})

	submitN(t, cli, "dummy::/slow", core.OpWrite, "x", 10, true)
	rt.EvaluateSLOs()
	waitBundles(t, srv.Bundler(), 1)

	// A different stack breaches: the lifetime cap still applies.
	submitN(t, cli, "fs::/s", core.OpRead, "missing", 10, false)
	rt.EvaluateSLOs()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Bundler().Skipped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cap breach neither captured nor skipped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Bundler().List(); len(got) != 1 {
		t.Fatalf("lifetime cap did not hold: %d bundles", len(got))
	}
}

// TestBundleCapConcurrentBreaches pins the cap against captures in flight:
// two stacks breaching in one evaluation run their hooks concurrently, and
// with Max 1 only one of them may write a bundle.
func TestBundleCapConcurrentBreaches(t *testing.T) {
	rt, cli, srv, _ := bootBundledRuntime(t, obs.BundleConfig{
		Dir:        t.TempDir(),
		ProfileDur: 50 * time.Millisecond,
		Max:        1,
	})
	submitN(t, cli, "dummy::/slow", core.OpWrite, "x", 10, true)
	submitN(t, cli, "fs::/s", core.OpRead, "missing", 10, false)
	rt.EvaluateSLOs()
	b := srv.Bundler()
	deadline := time.Now().Add(5 * time.Second)
	for len(b.List())+b.Skipped() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("two breaches gave %d bundles and %d skips", len(b.List()), b.Skipped())
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Wait()
	if got, skipped := len(b.List()), b.Skipped(); got != 1 || skipped != 1 {
		t.Fatalf("Max 1 with two concurrent breaches: %d bundles, %d skips; want 1 and 1", got, skipped)
	}
}

// TestProfileEndpoint checks /profile serves the attribution tables and that
// the served shares sum to ~100% (the acceptance criterion, over HTTP).
func TestProfileEndpoint(t *testing.T) {
	rt, cli, addr := bootServedRuntime(t, false)
	submitN(t, cli, "fs::/s", core.OpWrite, "f", 300, true)

	var resp obs.ProfileResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := get(t, addr, "/profile")
		if code != http.StatusOK {
			t.Fatalf("/profile: code %d", code)
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("/profile: %v", err)
		}
		if len(resp.Stacks) == 1 && resp.Stacks[0].Requests == 300 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/profile never converged: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// 300 writes drove the data path, so the copy audit cannot be empty
	// (at minimum the device DMA site fired).
	var copies int64
	for _, c := range resp.CopySites {
		copies += c.Count
	}
	if copies == 0 {
		t.Fatal("/profile copy_sites recorded no copies after 300 writes")
	}
	sa := resp.Stacks[0]
	if sum := sa.QueueWaitPct + sa.CPUPct + sa.DevicePct; math.Abs(sum-100) > 0.01 {
		t.Fatalf("/profile coarse shares sum to %.3f%%", sum)
	}
	var stageSum float64
	for _, st := range sa.Stages {
		stageSum += st.SharePct
	}
	if len(sa.Stages) == 0 || math.Abs(stageSum-100) > 0.5 {
		t.Fatalf("/profile stage shares sum to %.3f%% over %d stages", stageSum, len(sa.Stages))
	}
	_ = rt
}

// TestTracesExportChrome checks the Perfetto export: valid Chrome
// trace-event JSON with metadata and complete events, honoring the shared
// /traces selection grammar.
func TestTracesExportChrome(t *testing.T) {
	_, cli, addr := bootServedRuntime(t, false)
	submitN(t, cli, "fs::/s", core.OpWrite, "f", 20, true)

	code, body := get(t, addr, "/traces/export?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("/traces/export: code %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("export is not valid chrome trace JSON: %v", err)
	}
	spans, metas := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "M":
			metas++
		}
	}
	if spans == 0 || metas == 0 {
		t.Fatalf("export has %d span events and %d metadata events", spans, metas)
	}

	// The selection grammar carries over: an impossible floor empties it.
	_, body = get(t, addr, "/traces/export?min_us=1000000000")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			t.Fatalf("filtered export still has span events")
		}
	}

	// Unknown formats are rejected, not silently defaulted.
	if code, _ := get(t, addr, "/traces/export?format=svg"); code != http.StatusBadRequest {
		t.Fatalf("bad format: code %d", code)
	}
}

// TestTracesTailParam checks ?tail=1 selects the tail-outlier ring.
func TestTracesTailParam(t *testing.T) {
	dir := t.TempDir()
	rt, cli, _, addr := bootBundledRuntime(t, obs.BundleConfig{Dir: dir})
	submitN(t, cli, "fs::/s", core.OpWrite, "f", 500, true)

	code, body := get(t, addr, "/traces?tail=1")
	if code != http.StatusOK {
		t.Fatalf("/traces?tail=1: code %d", code)
	}
	var tail []telemetry.Trace
	if err := json.Unmarshal([]byte(body), &tail); err != nil {
		t.Fatal(err)
	}
	if want := len(rt.TailTraces()); len(tail) != want {
		t.Fatalf("/traces?tail=1 returned %d traces, runtime ring holds %d", len(tail), want)
	}
}
