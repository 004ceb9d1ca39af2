GO ?= go

.PHONY: build test vet race check bench telemetry obs-smoke serve-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check runs the full gate (scripts/check.sh): tier-1 (build + test), vet,
# the race detector across every package, then the soak, fuzz and smoke
# steps. Performance is judged by paired `bash bench/run.sh` runs, not here.
check:
	sh scripts/check.sh

bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' .

# obs-smoke boots labstor-runtime with the observability server on an
# ephemeral port and asserts /metrics and /snapshot serve real payloads.
obs-smoke:
	sh scripts/obs_smoke.sh

# serve-smoke boots labstor-runtime with the network front end on an
# ephemeral port, drives RPCs through labctl, and asserts the serve.*
# admission series appear on /metrics.
serve-smoke:
	sh scripts/serve_smoke.sh

# fuzz smoke-runs the shared record and frame codec, the wire-protocol
# frame decoder, the streaming frame reader against it, the router's head
# path against the server's, the YAML spec builder, the write-ahead log
# replay and the pushdown compiler/evaluator fuzzers.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCodec -fuzztime 10s ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzStreamReader -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzRouteHead -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzSpecParse -fuzztime 10s ./internal/spec
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzCompileEval -fuzztime 10s ./internal/mods/pushdown

# telemetry runs the probe workload and dumps the runtime snapshot.
telemetry:
	$(GO) run ./cmd/labbench -telemetry -quick
