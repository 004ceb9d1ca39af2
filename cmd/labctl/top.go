package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"labstor/internal/runtime"
)

// fetchJSON pulls one endpoint from a live runtime's observability server
// and decodes the response into v. A transport-level failure (nothing
// listening, DNS, timeout) comes back as a clean "runtime not reachable"
// error instead of Go's raw URL-error chain — the operator typo'd an
// address or the runtime is down, and either way the fix is the same.
func fetchJSON(addr, endpoint string, v any) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimRight(url, "/") + endpoint
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("runtime not reachable at %s (is the observe server running?)", addr)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	return nil
}

// fetchSnapshot pulls /snapshot from a live runtime's observability server
// and decodes it into the same typed tree the in-process path produces.
func fetchSnapshot(addr string) (*runtime.Snapshot, error) {
	var snap runtime.Snapshot
	if err := fetchJSON(addr, "/snapshot", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func printSnapshot(snap *runtime.Snapshot, asJSON bool) {
	if asJSON {
		out, err := snap.JSON()
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Print(snap.String())
}

// cmdTop renders a refreshing terminal view of a live runtime, polled from
// its /snapshot endpoint (`labctl top <addr>`).
func cmdTop(args []string) {
	interval := time.Second
	count := 0 // 0 = refresh until interrupted
	var addr string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "-interval", "--interval":
			i++
			if i >= len(args) {
				usageFor("top")
			}
			d, err := time.ParseDuration(args[i])
			if err != nil || d <= 0 {
				fatal("top: bad -interval %q", args[i])
			}
			interval = d
		case "-count", "--count":
			i++
			if i >= len(args) {
				usageFor("top")
			}
			if _, err := fmt.Sscanf(args[i], "%d", &count); err != nil || count < 0 {
				fatal("top: bad -count %q", args[i])
			}
		default:
			addr = a
		}
	}
	if addr == "" {
		usageFor("top")
	}

	var prevProcessed int64
	prevWhen := time.Now()
	for i := 0; count == 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		snap, err := fetchSnapshot(addr)
		if err != nil {
			fatal("top: %v", err)
		}
		now := time.Now()
		var processed int64
		for _, w := range snap.Workers {
			processed += w.Processed
		}
		rate := float64(0)
		if i > 0 {
			if dt := now.Sub(prevWhen).Seconds(); dt > 0 {
				rate = float64(processed-prevProcessed) / dt
			}
		}
		prevProcessed, prevWhen = processed, now

		if count != 1 {
			fmt.Print("\033[H\033[2J") // home + clear: full-screen refresh
		}
		renderTop(snap, addr, processed, rate)
	}
}

// renderTop prints the compact live view: one screen of the numbers an
// operator watches — workers, queue depths, SLO verdicts, latency summary
// and the flight-recorder tail.
func renderTop(snap *runtime.Snapshot, addr string, processed int64, rate float64) {
	fmt.Printf("labstor top — %s — %s\n", addr, time.Now().Format("15:04:05"))
	fmt.Printf("policy=%s active_workers=%d rebalances=%d processed=%d",
		snap.Orchestrator.Policy, snap.Orchestrator.ActiveWorkers, snap.Orchestrator.Rebalances, processed)
	if rate > 0 {
		fmt.Printf(" (%.0f req/s)", rate)
	}
	fmt.Println()

	fmt.Println("\nWORKERS")
	fmt.Printf("  %-4s %-7s %-10s %-12s %-8s %-8s %s\n", "id", "active", "processed", "busy", "empty%", "spin", "queues")
	for _, w := range snap.Workers {
		qs := make([]string, len(w.Queues))
		for i, q := range w.Queues {
			qs[i] = fmt.Sprint(q)
		}
		fmt.Printf("  %-4d %-7v %-10d %-12v %-8.1f %-8v %s\n",
			w.ID, w.Active, w.Processed, w.BusyVirt, 100*w.IdleRatio(), w.SpinWindow, strings.Join(qs, ","))
	}

	if len(snap.Queues) > 0 {
		fmt.Println("\nQUEUES")
		fmt.Printf("  %-4s %-13s %-9s %-9s %-9s %s\n", "id", "kind", "sq_depth", "inflight", "done", "est_us")
		for _, q := range snap.Queues {
			fmt.Printf("  %-4d %-13v %-9d %-9d %-9d %.1f\n",
				q.ID, q.Kind, q.SQ.Depth, q.Inflight, q.CQ.Enqueued, q.EstUS)
		}
	}

	if h, ok := snap.Metrics.Histograms["request.latency_us"]; ok {
		fmt.Println("\nLATENCY (sampled, us)")
		fmt.Printf("  count=%d mean=%.1f min=%.1f p50=%.1f p90=%.1f p99=%.1f p999=%.1f max=%.1f\n",
			h.Count, h.Mean, h.Min, h.P50, h.P90, h.P99, h.P999, h.Max)
	}

	if len(snap.SLOs) > 0 {
		fmt.Println("\nSLOS")
		fmt.Printf("  %-20s %-8s %-12s %-12s %s\n", "stack", "state", "p99_us", "err_rate", "breaches")
		for _, s := range snap.SLOs {
			state := "OK"
			if !s.OK {
				state = "BREACH"
			}
			fmt.Printf("  %-20s %-8s %-12.1f %-12.4f %d\n", s.Stack, state, s.P99US, s.ErrRate, s.Breaches)
		}
	}

	if n := len(snap.Events); n > 0 {
		const show = 6
		fmt.Printf("\nEVENTS (last %d of %d retained)\n", min(show, n), n)
		for _, e := range snap.Events[max(0, n-show):] {
			fmt.Println("  " + e.String())
		}
	}
}
