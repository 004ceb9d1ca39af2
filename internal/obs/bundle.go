package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"labstor/internal/runtime"
	"labstor/internal/telemetry"
)

// Bundle capture defaults, applied when the config leaves a knob zero.
const (
	// DefaultBundleProfile is how long the bundle's CPU profile runs.
	DefaultBundleProfile = 250 * time.Millisecond
	// DefaultBundleCooldown is the per-stack minimum spacing between
	// captures: a flapping SLO must not fill the disk with bundles.
	DefaultBundleCooldown = 60 * time.Second
	// DefaultBundleMax caps bundles written over one runtime lifetime.
	DefaultBundleMax = 16
)

// BundleConfig shapes incident capture. Dir is required; everything else
// has a safe default.
type BundleConfig struct {
	// Dir is the directory bundles are written under (one subdirectory
	// per incident). Created on first capture if absent.
	Dir string
	// ProfileDur is the CPU-profile duration per bundle (0 = 250ms).
	ProfileDur time.Duration
	// Cooldown rate-limits capture per stack (0 = 60s).
	Cooldown time.Duration
	// Max caps the number of bundles per runtime lifetime (0 = 16).
	Max int
}

// BundleInfo describes one captured bundle, as listed by /bundles.
type BundleInfo struct {
	ID    string `json:"id"`
	Dir   string `json:"dir"`
	Stack string `json:"stack"`
	// Reason summarizes the breach that triggered capture.
	Reason string    `json:"reason"`
	Wall   time.Time `json:"wall"`
	// Files lists the artifact filenames actually written.
	Files []string `json:"files,omitempty"`
	// Err carries a capture-side failure (partial bundles are listed too).
	Err string `json:"err,omitempty"`
}

// Bundler turns SLO-breach transitions into diagnostic bundle directories:
// a point-in-time capture of everything a postmortem needs — CPU profile,
// flight-recorder dump, outlier/error/sampled traces, metrics snapshot and
// the latency-attribution table — rate-limited so a flapping target cannot
// flood the disk. Arm it with rt.OnSLOBreach(b.OnBreach).
type Bundler struct {
	rt  *runtime.Runtime
	cfg BundleConfig

	mu      sync.Mutex
	last    map[string]time.Time // per-stack last capture wall time
	written []BundleInfo
	seq     int // captures started, finished or not: the cap counts these
	skipped int

	// captureMu serializes captures: the process has one CPU profiler.
	captureMu sync.Mutex
	wg        sync.WaitGroup
}

// NewBundler builds a bundler for rt. It does not arm itself: call
// rt.OnSLOBreach(b.OnBreach), which Server wiring does automatically.
func NewBundler(rt *runtime.Runtime, cfg BundleConfig) *Bundler {
	if cfg.ProfileDur <= 0 {
		cfg.ProfileDur = DefaultBundleProfile
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBundleCooldown
	}
	if cfg.Max <= 0 {
		cfg.Max = DefaultBundleMax
	}
	return &Bundler{rt: rt, cfg: cfg, last: make(map[string]time.Time)}
}

// OnBreach is the SLO-breach hook: it decides synchronously whether this
// breach deserves a bundle (cooldown + lifetime cap) and, if so, captures
// one. The runtime already invokes breach hooks on their own goroutines, so
// blocking here for the profile duration stalls nobody.
func (b *Bundler) OnBreach(st runtime.SLOStatus) {
	now := time.Now()
	b.mu.Lock()
	if b.seq >= b.cfg.Max {
		b.skipped++
		b.mu.Unlock()
		b.rt.Events().Recordf(telemetry.EvBundle, 0,
			"bundle skipped for %s: lifetime cap %d reached", st.Stack, b.cfg.Max)
		return
	}
	if prev, ok := b.last[st.Stack]; ok && now.Sub(prev) < b.cfg.Cooldown {
		b.skipped++
		b.mu.Unlock()
		b.rt.Events().Recordf(telemetry.EvBundle, 0,
			"bundle skipped for %s: in cooldown (%s since last)", st.Stack, now.Sub(prev).Round(time.Millisecond))
		return
	}
	b.last[st.Stack] = now
	b.seq++
	id := fmt.Sprintf("bundle-%s-%03d", now.UTC().Format("20060102-150405"), b.seq)
	b.mu.Unlock()

	b.wg.Add(1)
	defer b.wg.Done()
	info := b.capture(id, st, now)
	b.mu.Lock()
	b.written = append(b.written, info)
	b.mu.Unlock()
}

// Wait blocks until every in-flight capture has finished (test hook).
func (b *Bundler) Wait() { b.wg.Wait() }

// List returns the bundles written so far, oldest first.
func (b *Bundler) List() []BundleInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BundleInfo, len(b.written))
	copy(out, b.written)
	return out
}

// Skipped counts breaches that did not produce a bundle (cooldown or cap).
func (b *Bundler) Skipped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.skipped
}

// capture writes one bundle directory. Failures are per-artifact: a bundle
// missing its CPU profile (e.g. another profiler is running) still carries
// the traces and flight dump.
func (b *Bundler) capture(id string, st runtime.SLOStatus, now time.Time) BundleInfo {
	b.captureMu.Lock()
	defer b.captureMu.Unlock()

	dir := filepath.Join(b.cfg.Dir, id)
	info := BundleInfo{
		ID:    id,
		Dir:   dir,
		Stack: st.Stack,
		Reason: fmt.Sprintf("slo breach: p99=%.1fus (target %.1fus) err_rate=%.4f (target %.4f)",
			st.P99US, st.TargetP99US, st.ErrRate, st.TargetErrRate),
		Wall: now,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		info.Err = err.Error()
		return info
	}

	add := func(name string, err error) {
		if err != nil {
			if info.Err == "" {
				info.Err = name + ": " + err.Error()
			}
			return
		}
		info.Files = append(info.Files, name)
	}

	// CPU profile first: it samples the live workload while the breach is
	// (likely) still in progress. Everything after is point-in-time state.
	add("cpu.pprof", b.writeCPUProfile(filepath.Join(dir, "cpu.pprof")))
	add("meta.json", writeJSONFile(filepath.Join(dir, "meta.json"), map[string]any{
		"id": id, "stack": st.Stack, "reason": info.Reason, "wall": now, "slo": st,
	}))
	add("flight.txt", b.writeFlight(filepath.Join(dir, "flight.txt"), info.Reason))
	add("traces.json", writeJSONFile(filepath.Join(dir, "traces.json"), map[string]any{
		"tail":    b.rt.TailTraces(),
		"errors":  b.rt.Tracer().RecentErrors(),
		"sampled": b.rt.Traces(),
	}))
	add("metrics.json", writeJSONFile(filepath.Join(dir, "metrics.json"), b.rt.Metrics().Snapshot()))
	add("attribution.json", writeJSONFile(filepath.Join(dir, "attribution.json"), b.rt.Attribution()))
	add("snapshot.json", b.writeSnapshot(filepath.Join(dir, "snapshot.json")))

	b.rt.Events().Recordf(telemetry.EvBundle, 0, "bundle %s captured for %s (%d artifacts)", id, st.Stack, len(info.Files))
	return info
}

// writeCPUProfile samples the process CPU for the configured duration. If
// another profile is active (a /debug/pprof/profile scrape, a concurrent
// bundle from a pre-serialization era), the bundle proceeds without one.
func (b *Bundler) writeCPUProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("profiler busy: %w", err)
	}
	time.Sleep(b.cfg.ProfileDur)
	pprof.StopCPUProfile()
	return f.Close()
}

func (b *Bundler) writeFlight(path, reason string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	b.rt.DumpFlightTo(f, reason)
	return f.Close()
}

func (b *Bundler) writeSnapshot(path string) error {
	raw, err := b.rt.Snapshot().JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
