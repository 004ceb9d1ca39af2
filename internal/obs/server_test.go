package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	_ "labstor/internal/mods/allmods"
	"labstor/internal/obs"
	"labstor/internal/runtime"
	"labstor/internal/spec"
	"labstor/internal/telemetry"
)

func bootServedRuntime(t *testing.T, pprof bool) (*runtime.Runtime, *runtime.Client, string) {
	t.Helper()
	rt := runtime.New(runtime.Options{
		MaxWorkers:      2,
		PerfSampleEvery: 1,
		SLOCheckEvery:   time.Hour,
		SLOs:            []runtime.SLOTarget{{Stack: "fs::/s", P99US: 1e9, MaxErrRate: 0.5}},
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
	rt.Start()
	t.Cleanup(rt.Shutdown)

	srv := obs.New(rt, obs.Config{Addr: "127.0.0.1:0", Pprof: pprof})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return rt, rt.Connect(ipc.Credentials{PID: 1, UID: 1000, GID: 1000}), addr
}

func drive(t *testing.T, cli *runtime.Client, writes, badReads int) {
	t.Helper()
	buf := make([]byte, 512)
	for i := 0; i < writes; i++ {
		req := core.NewRequest(core.OpWrite)
		req.Path, req.Flags = "f", core.FlagCreate
		req.Offset, req.Size, req.Data = int64(i)*512, len(buf), buf
		if err := cli.Submit("fs::/s", req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < badReads; i++ {
		req := core.NewRequest(core.OpRead)
		req.Path, req.Size, req.Data = "missing", len(buf), buf
		_ = cli.Submit("fs::/s", req)
	}
}

func get(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// The same exposition grammar the telemetry golden test enforces: scrapes
// over HTTP must stay parseable by a real Prometheus server.
var (
	promMetricLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*")*\})? (-?[0-9.eE+-]+|NaN|\+Inf|-Inf)$`)
	promTypeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
)

func TestMetricsEndpoint(t *testing.T) {
	_, cli, addr := bootServedRuntime(t, false)
	drive(t, cli, 25, 0)

	code, body := get(t, addr, "/metrics")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/metrics: code %d, %d bytes", code, len(body))
	}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !promTypeLine.MatchString(line) {
				t.Fatalf("line %d not a valid TYPE comment: %q", i+1, line)
			}
			continue
		}
		if !promMetricLine.MatchString(line) {
			t.Fatalf("line %d not a valid sample: %q", i+1, line)
		}
	}
	for _, want := range []string{
		"labstor_client_submitted 25",
		`labstor_slo_ok{stack="fs::/s"}`,
		`labstor_stack_requests{stack="fs::/s"} 25`,
		"labstor_request_latency_us{quantile=\"0.99\"}",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestSnapshotEndpointRoundTrip(t *testing.T) {
	rt, cli, addr := bootServedRuntime(t, false)
	drive(t, cli, 10, 3)
	rt.EvaluateSLOs()

	code, body := get(t, addr, "/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot: code %d", code)
	}
	var snap runtime.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot does not unmarshal into runtime.Snapshot: %v", err)
	}
	var processed int64
	for _, w := range snap.Workers {
		processed += w.Processed
	}
	if processed != 13 {
		t.Fatalf("snapshot processed = %d, want 13", processed)
	}
	if len(snap.SLOs) != 1 || snap.SLOs[0].Stack != "fs::/s" {
		t.Fatalf("snapshot SLOs = %+v", snap.SLOs)
	}
	if len(snap.Events) == 0 || len(snap.ErrorTraces) != 3 {
		t.Fatalf("snapshot events=%d error_traces=%d", len(snap.Events), len(snap.ErrorTraces))
	}
	// Two scrapes re-render: state advances between them.
	drive(t, cli, 5, 0)
	_, body2 := get(t, addr, "/snapshot")
	var snap2 runtime.Snapshot
	if err := json.Unmarshal([]byte(body2), &snap2); err != nil {
		t.Fatal(err)
	}
	processed = 0
	for _, w := range snap2.Workers {
		processed += w.Processed
	}
	if processed != 18 {
		t.Fatalf("second snapshot processed = %d, want 18", processed)
	}
}

func TestTracesEndpointFilters(t *testing.T) {
	_, cli, addr := bootServedRuntime(t, false)
	drive(t, cli, 8, 4)

	code, body := get(t, addr, "/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces: code %d", code)
	}
	var traces []telemetry.Trace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 12 {
		t.Fatalf("/traces returned %d, want 12", len(traces))
	}

	_, body = get(t, addr, "/traces?err=1")
	var errTraces []telemetry.Trace
	if err := json.Unmarshal([]byte(body), &errTraces); err != nil {
		t.Fatal(err)
	}
	if len(errTraces) != 4 {
		t.Fatalf("/traces?err=1 returned %d, want 4", len(errTraces))
	}
	for _, tr := range errTraces {
		if tr.Err == "" {
			t.Fatalf("error filter returned a clean trace: %+v", tr)
		}
	}

	_, body = get(t, addr, "/traces?op=write&stack=fs::/s&n=3")
	var writes []telemetry.Trace
	if err := json.Unmarshal([]byte(body), &writes); err != nil {
		t.Fatal(err)
	}
	if len(writes) != 3 {
		t.Fatalf("op/stack/n filter returned %d, want 3", len(writes))
	}
	for _, tr := range writes {
		if tr.Op != "write" || tr.Stack != "fs::/s" {
			t.Fatalf("filtered trace = %+v", tr)
		}
	}

	// A latency floor far above anything modeled filters everything out.
	_, body = get(t, addr, "/traces?min_us=1000000000")
	var none []telemetry.Trace
	if err := json.Unmarshal([]byte(body), &none); err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("min_us filter kept %d traces", len(none))
	}
}

// TestTraceAndEventQueriesRejectMalformedNumbers pins the query grammar: a
// malformed or negative n or min_us is a 400 naming the parameter, not a
// silently dropped filter.
func TestTraceAndEventQueriesRejectMalformedNumbers(t *testing.T) {
	_, cli, addr := bootServedRuntime(t, false)
	drive(t, cli, 4, 1)
	for _, tc := range []struct {
		path  string
		code  int
		param string
	}{
		{"/traces?n=ten", http.StatusBadRequest, "n="},
		{"/traces?n=-1", http.StatusBadRequest, "n="},
		{"/traces?min_us=abc", http.StatusBadRequest, "min_us="},
		{"/traces?min_us=-5", http.StatusBadRequest, "min_us="},
		{"/traces/export?n=ten", http.StatusBadRequest, "n="},
		{"/traces/export?min_us=abc", http.StatusBadRequest, "min_us="},
		{"/events?n=ten", http.StatusBadRequest, "n="},
		{"/events?n=-1", http.StatusBadRequest, "n="},
		{"/traces?n=0&min_us=0", http.StatusOK, ""},
		{"/traces/export?n=2&min_us=1.5", http.StatusOK, ""},
		{"/events?n=100", http.StatusOK, ""},
	} {
		code, body := get(t, addr, tc.path)
		if code != tc.code || !strings.Contains(body, tc.param) {
			t.Errorf("GET %s: %d %.80q, want %d naming %q", tc.path, code, body, tc.code, tc.param)
		}
	}
}

func TestEventsEndpoint(t *testing.T) {
	_, cli, addr := bootServedRuntime(t, false)
	drive(t, cli, 2, 1)

	code, body := get(t, addr, "/events")
	if code != http.StatusOK {
		t.Fatalf("/events: code %d", code)
	}
	var evs []telemetry.Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, e := range evs {
		kinds[e.Kind] = true
	}
	for _, want := range []string{telemetry.EvRuntime, telemetry.EvWorker, telemetry.EvRequestError, telemetry.EvObserve} {
		if !kinds[want] {
			t.Fatalf("/events missing kind %q (have %v)", want, kinds)
		}
	}

	_, body = get(t, addr, "/events?kind=request")
	var reqEvs []telemetry.Event
	if err := json.Unmarshal([]byte(body), &reqEvs); err != nil {
		t.Fatal(err)
	}
	if len(reqEvs) != 1 || reqEvs[0].Kind != telemetry.EvRequestError {
		t.Fatalf("/events?kind=request = %+v", reqEvs)
	}
}

func TestSLOsAndHealthz(t *testing.T) {
	rt, cli, addr := bootServedRuntime(t, false)
	drive(t, cli, 6, 0)
	rt.EvaluateSLOs()

	code, body := get(t, addr, "/slos")
	if code != http.StatusOK {
		t.Fatalf("/slos: code %d", code)
	}
	var slos []runtime.SLOStatus
	if err := json.Unmarshal([]byte(body), &slos); err != nil {
		t.Fatal(err)
	}
	if len(slos) != 1 || !slos[0].OK {
		t.Fatalf("/slos = %+v", slos)
	}

	code, body = get(t, addr, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "running") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	rt.Crash()
	code, body = get(t, addr, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "crashed") {
		t.Fatalf("/healthz after crash = %d %q", code, body)
	}
	if err := rt.Restart(); err != nil {
		t.Fatal(err)
	}
	code, _ = get(t, addr, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz after restart = %d", code)
	}
}

func TestPprofGating(t *testing.T) {
	_, _, withAddr := bootServedRuntime(t, true)
	code, body := get(t, withAddr, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof enabled: code %d", code)
	}

	_, _, withoutAddr := bootServedRuntime(t, false)
	code, _ = get(t, withoutAddr, "/debug/pprof/")
	if code != http.StatusNotFound {
		t.Fatalf("pprof disabled but served: code %d", code)
	}
}

func TestServeConcurrentWithTraffic(t *testing.T) {
	_, cli, addr := bootServedRuntime(t, false)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 256)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := core.NewRequest(core.OpWrite)
			req.Path, req.Flags = "hot", core.FlagCreate
			req.Offset, req.Size, req.Data = int64(i)*256, len(buf), buf
			_ = cli.Submit("fs::/s", req)
		}
	}()
	for i := 0; i < 20; i++ {
		for _, ep := range []string{"/metrics", "/snapshot", "/traces", "/events", "/healthz"} {
			code, body := get(t, addr, ep)
			if code != http.StatusOK || len(body) == 0 {
				t.Errorf("%s under load: code %d, %d bytes", ep, code, len(body))
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestFromConfigDisabled(t *testing.T) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1})
	srv, bound, err := obs.FromConfig(rt, spec.ObserveSpec{Pprof: true})
	if srv != nil || bound != "" || err != nil {
		t.Fatalf("FromConfig with empty addr: %v %q %v", srv, bound, err)
	}
}

func TestIndexListsEndpoints(t *testing.T) {
	_, _, addr := bootServedRuntime(t, true)
	code, body := get(t, addr, "/")
	if code != http.StatusOK {
		t.Fatalf("/: code %d", code)
	}
	for _, want := range []string{"/metrics", "/snapshot", "/traces", "/events", "/debug/pprof/"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index missing %q: %s", want, body)
		}
	}
	if code, _ := get(t, addr, "/nonexistent"); code != http.StatusNotFound {
		t.Fatalf("unknown path served: %d", code)
	}
}
