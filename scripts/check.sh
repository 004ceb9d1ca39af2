#!/bin/sh
# check.sh — the repo's full verification gate:
#   1. tier-1: go build ./... && go test ./...
#   2. static analysis: go vet ./...
#   3. concurrency: go test -race -timeout 1800s ./... (on a 2-core host
#      internal/experiments alone needs ~12.5 min under the race detector,
#      past Go's default 10 min)
#   4. hot-path soak: the lock-free ring and worker/client hot path, the
#      write-ahead log with LabFS and LabKVS on top of it, and the LRU's
#      slot table, twice under the race detector with shuffled test order,
#      to surface ordering-dependent races the single straight-line pass
#      can miss.
#   5. handshake: the vectored ring and queue pair (the only ring there is),
#      the submit → complete → reap handshake tests (completion word,
#      wake channel, poll-then-park Wait) and the worker's idle spin tests
#      (window rule, park on sparse arrivals, no re-spin after a backstop
#      wake) three times under the race detector at -cpu 1,2,8; the -cpu 1
#      leg is the guard against a spin or poll loop that forgets to yield.
#   6. control plane: TestConcurrentConnectAssignsEveryQueue (16 clients
#      connecting at once, 300 runtimes over, must leave every queue with
#      exactly one worker) three times at -cpu 1,2,4; then three times
#      under the race detector at -cpu 1,2,8: the
#      connect/disconnect/upgrade/rebalance/stack-edit stress test over an
#      async and a sync stack with centralized and decentralized upgrades
#      (ownership, in-flight and one-counter invariants), the pinned-plan
#      test (async and sync walkers while stack edits and upgrades run;
#      every request must finish on one whole version of its DAG), and the
#      quiescence tests: walker slots and per-stack gates keep an upgrade
#      from swapping a module an async or sync request is inside, and
#      Restart from repairing under one, while edits and upgrades of other
#      stacks go on; a sync walk waits out a crash; and a decentralized
#      upgrade swaps the one instance under a walking sync client.
#   7. chaos: TestChaosMixedLoadWithUpgradesAndCrash 200 times (concurrent
#      LabFS writers, through an async and a sync-mode stack, across
#      centralized and decentralized live upgrades, a stack insert/remove
#      and a crash/restart; every fsync-acknowledged file must read back
#      intact).
#      Its failures are rare per run, so the single pass in step 1 misses
#      them. 200 runs take ~4 s on a 2-core host.
#   8. debug handles: core, serve, LabKVS, LabFS, the write-ahead log, the
#      LRU and the facade again with -tags labstor_debug, so released
#      buffers are poisoned and a stale or twice-released BufHandle panics
#      — a cached get's value is a view of the cache page, the serve plane
#      writes it in place and releases it only after the socket write, the
#      facade copies it, and LabFS, the log and LabKVS release their pooled
#      block children (and the results those hold) once absorbed.
#   9. bench smoke: every benchmark once, then BenchmarkClientCallNop with
#      -benchmem so the client round trip's ns/op and allocs/op are in the
#      log.
#  10. fuzz smoke: short native-fuzzing runs of the shared record and frame
#      codec (internal/codec: field and frame round trips, torn and
#      truncated input), the wire-protocol frame decoder, its streaming
#      reader against it (serve.* RPC framing), the YAML spec/stack
#      builder, the write-ahead log's replay over arbitrary block images,
#      the pushdown KV result decoder and the pushdown compiler and
#      evaluator (whole records against chunked ones), and the router's
#      head path against the server's (same frames accepted, forwarded
#      heads byte-identical to AppendReq), to catch parser regressions early.
#  11. observe smoke: boot labstor-runtime with the observability server on
#      an ephemeral port and assert /metrics and /snapshot serve payloads.
#  12. serve smoke: boot labstor-runtime with the network front end on an
#      ephemeral port, drive RPCs via labctl, assert serve.* on /metrics.
#  13. completion record: the attribution, SLO, trace, tail, flight-recorder,
#      bundle, ring and views-agree tests three times under the race
#      detector at -cpu 1,2,8. Workers fold completions into one
#      telemetry.Profile and publish on idle scans and before parking, and
#      bundle captures reserve their slot under a lock; these legs vary
#      the interleavings those depend on.
#  14. router: the router tests three times under the race detector at
#      -cpu 1,2,8. Upstream readers write responses to client sockets
#      themselves, so two of them may write to one client at once, under
#      that client's lock, while its own reader writes pongs and errors.
#  15. keys: the remount test (a live connection reaches a stack mounted
#      again at its path), the key slab tests (a slab string reads the same
#      after rollovers) and the LabKVS index tests (keys owned by the index,
#      and op by op against a map model with the free-list invariant) three
#      times under the race detector at -cpu 1,2,8. Slab strings cross from
#      the reader to workers while the reader appends to the same slab, and
#      LabKVS reads entries copied out under its shard locks.
# Run from the repository root (or via `make check`).
set -eu
cd "$(dirname "$0")/.."

echo "== tier-1: go build ./... =="
go build ./...

echo "== tier-1: go test ./... =="
go test ./...

echo "== go vet ./... =="
go vet ./...

echo "== go test -race -timeout 1800s ./... =="
go test -race -timeout 1800s ./...

echo "== go test -race -count=2 -shuffle=on ./internal/ipc/... ./internal/runtime/... ./internal/device/... ./internal/telemetry/... ./internal/obs/... ./internal/serve/... ./internal/mods/pushdown/... ./internal/wal/... ./internal/mods/labfs/... ./internal/mods/labkvs/... ./internal/mods/lru/... =="
go test -race -count=2 -shuffle=on ./internal/ipc/... ./internal/runtime/... ./internal/device/... ./internal/telemetry/... ./internal/obs/... ./internal/serve/... ./internal/mods/pushdown/... ./internal/wal/... ./internal/mods/labfs/... ./internal/mods/labkvs/... ./internal/mods/lru/...

echo "== handshake: go test -race -count=3 -cpu 1,2,8 -run 'Ring|QueuePair|Handshake|Wait|Spin|Park|Idle' ./internal/ipc/... ./internal/core/... ./internal/runtime/... =="
go test -race -count=3 -cpu 1,2,8 -run 'Ring|QueuePair|Handshake|Wait|Spin|Park|Idle' ./internal/ipc/... ./internal/core/... ./internal/runtime/...

echo "== control plane: go test -count=3 -cpu 1,2,4 -run TestConcurrentConnectAssignsEveryQueue ./internal/runtime =="
go test -count=3 -cpu 1,2,4 -run TestConcurrentConnectAssignsEveryQueue ./internal/runtime

echo "== control plane: go test -race -count=3 -cpu 1,2,8 -run 'TestControlPlane|TestWalkersPinTheirPlan|TestUpgradeNeverSwaps|TestModifyStackUnderSync|TestRestartWaits|TestSyncWalk|TestDecentralizedUpgrade|TestConnectDuringUpgrade' ./internal/runtime =="
go test -race -count=3 -cpu 1,2,8 -run 'TestControlPlane|TestWalkersPinTheirPlan|TestUpgradeNeverSwaps|TestModifyStackUnderSync|TestRestartWaits|TestSyncWalk|TestDecentralizedUpgrade|TestConnectDuringUpgrade' ./internal/runtime

echo "== chaos: go test -count=200 -run TestChaosMixedLoadWithUpgradesAndCrash ./internal/runtime =="
go test -count=200 -run TestChaosMixedLoadWithUpgradesAndCrash ./internal/runtime

echo "== debug handles: go test -tags labstor_debug ./internal/core/... ./internal/serve/... ./internal/mods/labkvs ./internal/mods/labfs ./internal/wal ./internal/mods/lru . =="
go test -tags labstor_debug ./internal/core/... ./internal/serve/... ./internal/mods/labkvs ./internal/mods/labfs ./internal/wal ./internal/mods/lru .

echo "== bench smoke: go test -bench=. -benchtime=1x -run '^$' ./... =="
go test -bench=. -benchtime=1x -run '^$' ./...

echo "== bench smoke: go test -bench ClientCallNop -benchmem -run '^$' ./internal/runtime =="
go test -bench ClientCallNop -benchmem -run '^$' ./internal/runtime

echo "== fuzz smoke: FuzzCodec -fuzztime 5s =="
go test -run '^$' -fuzz FuzzCodec -fuzztime 5s ./internal/codec

echo "== fuzz smoke: FuzzFrameDecode -fuzztime 5s =="
go test -run '^$' -fuzz FuzzFrameDecode -fuzztime 5s ./internal/serve

echo "== fuzz smoke: FuzzStreamReader -fuzztime 5s =="
go test -run '^$' -fuzz FuzzStreamReader -fuzztime 5s ./internal/serve

echo "== fuzz smoke: FuzzRouteHead -fuzztime 5s =="
go test -run '^$' -fuzz FuzzRouteHead -fuzztime 5s ./internal/serve

echo "== fuzz smoke: FuzzSpecParse -fuzztime 5s =="
go test -run '^$' -fuzz FuzzSpecParse -fuzztime 5s ./internal/spec

echo "== fuzz smoke: FuzzWALReplay -fuzztime 5s =="
go test -run '^$' -fuzz FuzzWALReplay -fuzztime 5s ./internal/wal

echo "== fuzz smoke: FuzzDecodeKV -fuzztime 5s =="
go test -run '^$' -fuzz FuzzDecodeKV -fuzztime 5s ./internal/mods/pushdown

echo "== fuzz smoke: FuzzCompileEval -fuzztime 5s =="
go test -run '^$' -fuzz FuzzCompileEval -fuzztime 5s ./internal/mods/pushdown

echo "== observe smoke: scripts/obs_smoke.sh =="
sh scripts/obs_smoke.sh

echo "== serve smoke: scripts/serve_smoke.sh =="
sh scripts/serve_smoke.sh

echo "== completion record: go test -race -count=3 -cpu 1,2,8 -run 'Attribution|SLO|Trace|Tail|Flight|Bundle|Ring|Views' ./internal/telemetry/... ./internal/runtime/... ./internal/obs/... =="
go test -race -count=3 -cpu 1,2,8 -run 'Attribution|SLO|Trace|Tail|Flight|Bundle|Ring|Views' ./internal/telemetry/... ./internal/runtime/... ./internal/obs/...

echo "== router: go test -race -count=3 -cpu 1,2,8 -run Router ./internal/serve =="
go test -race -count=3 -cpu 1,2,8 -run Router ./internal/serve

echo "== keys: go test -race -count=3 -cpu 1,2,8 -run 'TestServeRemount|TestKeySlab|TestIndex' ./internal/serve ./internal/mods/labkvs =="
go test -race -count=3 -cpu 1,2,8 -run 'TestServeRemount|TestKeySlab|TestIndex' ./internal/serve ./internal/mods/labkvs

echo "== check: OK =="
