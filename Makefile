GO ?= go

.PHONY: build test vet race check bench bench-contention bench-zerocopy bench-observe bench-attribution bench-serve bench-pushdown bench-gate telemetry obs-smoke serve-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check runs the full gate: tier-1 (build + test), vet, and the race
# detector across every package.
check:
	sh scripts/check.sh

bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' .

# bench-contention measures multi-writer device-store scaling, striped vs
# global lock, and records the scalar results in BENCH_contention.json.
bench-contention:
	$(GO) run ./cmd/labbench -exp contention -json BENCH_contention.json

# bench-zerocopy measures the zero-copy data path: the copy ladder
# (copypath -> baseline -> zeropath -> mapped) at 1/4/8 clients, stack-level
# copies/op from the telemetry copy-site audit, and the modeled cross-NUMA
# charge reduction from locality-aware placement (BENCH_zerocopy.json).
bench-zerocopy:
	$(GO) run ./cmd/labbench -exp zerocopy -json BENCH_zerocopy.json

# bench-observe measures the cost of the live observability plane (SLO
# watchdog + flight recorder + HTTP scraping) against the telemetry-only
# baseline and records the scalar results in BENCH_observe.json.
bench-observe:
	$(GO) run ./cmd/labbench -exp observe -json BENCH_observe.json

# bench-attribution measures the cost of always-on latency attribution
# (per-request fold + tail-retention decision) against the profiling-off
# baseline and records the scalar results in BENCH_attribution.json.
bench-attribution:
	$(GO) run ./cmd/labbench -exp attribution -json BENCH_attribution.json

# bench-serve drives the network front end over real TCP loopback: the
# concurrent-connection ladder (100/1000/4000) in direct and sharded-router
# modes, per-tenant rate-limit enforcement and BUSY backpressure
# (BENCH_serve.json).
bench-serve:
	$(GO) run ./cmd/labbench -exp serve -json BENCH_serve.json

# bench-pushdown runs the computation-pushdown selectivity ladder (KVS scan
# + FS grep, direct and over TCP) and hard-fails unless 1%-selectivity
# pushdown beats client-side filtering >=3x on bytes moved and on 8-client
# jobs/s (BENCH_pushdown.json).
bench-pushdown:
	$(GO) run ./cmd/labbench -exp pushdown -json BENCH_pushdown.json

# bench-gate reruns each bench with a committed BENCH_*.json baseline and
# warns (never fails) when its headline scalar regressed >10%.
bench-gate:
	sh scripts/bench_gate.sh

# obs-smoke boots labstor-runtime with the observability server on an
# ephemeral port and asserts /metrics and /snapshot serve real payloads.
obs-smoke:
	sh scripts/obs_smoke.sh

# serve-smoke boots labstor-runtime with the network front end on an
# ephemeral port, drives RPCs through labctl, and asserts the serve.*
# admission series appear on /metrics.
serve-smoke:
	sh scripts/serve_smoke.sh

# fuzz smoke-runs the wire-protocol frame decoder, the streaming frame
# reader against it, and the YAML spec builder fuzzers.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzStreamReader -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzSpecParse -fuzztime 10s ./internal/spec

# telemetry runs the probe workload and dumps the runtime snapshot.
telemetry:
	$(GO) run ./cmd/labbench -telemetry -quick
