#!/bin/sh
# check.sh — the repo's full verification gate:
#   1. tier-1: go build ./... && go test ./...
#   2. static analysis: go vet ./...
#   3. concurrency: go test -race -timeout 1800s ./... (on a 2-core host
#      internal/experiments alone needs ~12.5 min under the race detector,
#      past Go's default 10 min)
#   4. hot-path soak: the lock-free ring and worker/client hot path, the
#      write-ahead log with LabFS and LabKVS on top of it, the block
#      allocator they share, and the LRU's slot table, twice under the race detector with shuffled test order,
#      to surface ordering-dependent races the single straight-line pass
#      can miss.
#   5. handshake: the vectored ring and queue pair (the only ring there is),
#      the submit → complete → reap handshake tests (completion word,
#      the parker's bell, backstop and stop, poll-then-park Wait) and the
#      worker's idle spin tests (window rule, park on sparse arrivals, no
#      re-spin after a backstop wake) three times under the race detector at
#      -cpu 1,2,8; the -cpu 1 leg is the guard against a spin or poll loop
#      that forgets to yield.
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
#      upgrade swaps the one instance under a walking sync client; an
#      upgrade, which runs on its caller, returns ErrStopped once the
#      runtime stops, whether called after Shutdown or waiting for a
#      walker when Shutdown comes. With them the connection ledger (connect/disconnect pairs leave the
#      client table and the queue list where they started) and the failed
#      mount (a mount that fails part way leaves no instance behind, so a
#      corrected retry mounts), and Restart ringing every worker's parker.
#   7. chaos: TestChaosMixedLoadWithUpgradesAndCrash 200 times (concurrent
#      LabFS writers, through an async and a sync-mode stack, across
#      centralized and decentralized live upgrades, a stack insert/remove
#      and a crash/restart; every fsync-acknowledged file must read back
#      intact).
#      Its failures are rare per run, so the single pass in step 1 misses
#      them. 200 runs take ~4 s on a 2-core host.
#   8. debug handles: core, serve, LabKVS, LabFS, the write-ahead log, the
#      LRU, compressmod, readahead, pushdown, consistency and the facade
#      again with -tags labstor_debug, so released buffers are poisoned and
#      a stale or twice-released BufHandle panics — a cached get's value is
#      a view of the cache page, the serve plane writes it in place and
#      releases it only after the socket write, the facade copies it, every
#      block child a mod spawns is released by Exec.SpawnNext (with the
#      result it holds, unless the spawner takes it), and every scratch
#      block (compressmod's frames, readahead's prefetches, the mods'
#      staging) is a handle.
#      Then the device store, the drivers and the copy contracts the same
#      way: the store keeps adopted blocks by reference, checksums them
#      under the tag and panics on one a writer changed after its write.
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
#  14. router: the router tests and the handshake table (the server and the
#      router close a connection whose first frame is a Hello of another
#      version, or no Hello, without an ack) three times under the race
#      detector at -cpu 1,2,8. Upstream readers write responses to client
#      sockets themselves, so two of them may write to one client at once,
#      under that client's lock, while its own reader writes pongs and
#      errors.
#  15. keys: the remount test (a live connection reaches a stack mounted
#      again at its path), the key slab tests (a slab string reads the same
#      after rollovers), the LabKVS index tests (keys owned by the index,
#      and op by op against a map model with the free-block invariant) and
#      the failed put (a put whose block write fails frees its blocks) three
#      times under the race detector at -cpu 1,2,8. Slab strings cross from
#      the reader to workers while the reader appends to the same slab, and
#      LabKVS reads entries copied out under its shard locks.
#  16. payload retention: the serve copy contract (puts over the wire make
#      no cache copy, and every value reads back byte-exact once the putting
#      connection is gone), the LRU retention tests and the serve lifetime
#      tests three times under the race detector at -cpu 1,2,8. A put's
#      payload buffer becomes the cache page by reference: workers retain it
#      while the connection's completer releases its own reference. With
#      them the device store's adoption, view and stress tests, the
#      drivers' DMA-by-reference test and the file copy contract: the
#      store retains pages and payloads while readers hold views of them.
#      The serve lifetime tests include the connection ledger (50 served
#      connections opened and closed leave the runtime's queue list,
#      goroutines and arena where they started) and close-during-accept
#      against the server and the router, which share one connection
#      lifetime: a connection accepted while Close runs is closed too.
#  17. streamed completions: the worker's per-request publish test (a batch
#      of four whose last request is held at a gate: the three before it
#      read done meanwhile), the serve completer's tests (the first answer
#      of a pipelined window of 8 arrives while its last request is held,
#      and a batch goes out in at most two writes, in order) and the
#      runtime's completion and handshake tests three times under the race
#      detector with -tags labstor_debug at -cpu 1,2,8. The tests recycle
#      completed requests through the pool while the worker is still in
#      their batch, so a touch after MarkDone is a reported race.
#  18. golden tables: TestGoldenTables at -cpu 1,2,8. The anatomy,
#      storageapi, labios and upgrade tables at their labbench -quick sizes
#      must match internal/experiments/testdata/*.golden byte for byte at
#      every GOMAXPROCS, so a change that moves a modeled number fails
#      here. The upgrade table applies its batch with one synchronous
#      Upgrade call, so no wall-clock tick decides when it lands.
#  19. examples: go run each program under examples/ (about a second
#      each); a non-zero exit fails the gate. The examples mount their own
#      stacks, and a mount fails on an attribute its mod does not read, so
#      this catches an example left setting a retired or misspelt key.
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

echo "== go test -race -count=2 -shuffle=on ./internal/ipc/... ./internal/runtime/... ./internal/device/... ./internal/telemetry/... ./internal/obs/... ./internal/serve/... ./internal/mods/pushdown/... ./internal/wal/... ./internal/blockalloc/... ./internal/mods/labfs/... ./internal/mods/labkvs/... ./internal/mods/lru/... =="
go test -race -count=2 -shuffle=on ./internal/ipc/... ./internal/runtime/... ./internal/device/... ./internal/telemetry/... ./internal/obs/... ./internal/serve/... ./internal/mods/pushdown/... ./internal/wal/... ./internal/blockalloc/... ./internal/mods/labfs/... ./internal/mods/labkvs/... ./internal/mods/lru/...

echo "== handshake: go test -race -count=3 -cpu 1,2,8 -run 'Ring|QueuePair|Handshake|Wait|Spin|Park|Idle' ./internal/ipc/... ./internal/core/... ./internal/runtime/... =="
go test -race -count=3 -cpu 1,2,8 -run 'Ring|QueuePair|Handshake|Wait|Spin|Park|Idle' ./internal/ipc/... ./internal/core/... ./internal/runtime/...

echo "== control plane: go test -count=3 -cpu 1,2,4 -run TestConcurrentConnectAssignsEveryQueue ./internal/runtime =="
go test -count=3 -cpu 1,2,4 -run TestConcurrentConnectAssignsEveryQueue ./internal/runtime

echo "== control plane: go test -race -count=3 -cpu 1,2,8 -run 'TestControlPlane|TestWalkersPinTheirPlan|TestUpgradeNeverSwaps|TestUpgradeNeverOutlives|TestModifyStackUnderSync|TestRestartWaits|TestSyncWalk|TestDecentralizedUpgrade|TestConnectDuringUpgrade|TestConnectionLedger|TestFailedMountLeavesNothingBehind|TestRestartRingsEveryWorker' ./internal/runtime =="
go test -race -count=3 -cpu 1,2,8 -run 'TestControlPlane|TestWalkersPinTheirPlan|TestUpgradeNeverSwaps|TestUpgradeNeverOutlives|TestModifyStackUnderSync|TestRestartWaits|TestSyncWalk|TestDecentralizedUpgrade|TestConnectDuringUpgrade|TestConnectionLedger|TestFailedMountLeavesNothingBehind|TestRestartRingsEveryWorker' ./internal/runtime

echo "== chaos: go test -count=200 -run TestChaosMixedLoadWithUpgradesAndCrash ./internal/runtime =="
go test -count=200 -run TestChaosMixedLoadWithUpgradesAndCrash ./internal/runtime

echo "== debug handles: go test -tags labstor_debug ./internal/core/... ./internal/serve/... ./internal/mods/labkvs ./internal/mods/labfs ./internal/wal ./internal/mods/lru ./internal/mods/compressmod ./internal/mods/readahead ./internal/mods/pushdown ./internal/mods/consistency . =="
go test -tags labstor_debug ./internal/core/... ./internal/serve/... ./internal/mods/labkvs ./internal/mods/labfs ./internal/wal ./internal/mods/lru ./internal/mods/compressmod ./internal/mods/readahead ./internal/mods/pushdown ./internal/mods/consistency .

echo "== debug handles: go test -tags labstor_debug ./internal/device ./internal/mods/driver; -run 'CopyContract' ./internal/experiments =="
go test -tags labstor_debug ./internal/device ./internal/mods/driver
go test -tags labstor_debug -run 'CopyContract' ./internal/experiments

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

echo "== router: go test -race -count=3 -cpu 1,2,8 -run 'Router|TestHandshakeRejects' ./internal/serve =="
go test -race -count=3 -cpu 1,2,8 -run 'Router|TestHandshakeRejects' ./internal/serve

echo "== keys: go test -race -count=3 -cpu 1,2,8 -run 'TestServeRemount|TestKeySlab|TestIndex|TestFailedPutFreesItsBlocks' ./internal/serve ./internal/mods/labkvs =="
go test -race -count=3 -cpu 1,2,8 -run 'TestServeRemount|TestKeySlab|TestIndex|TestFailedPutFreesItsBlocks' ./internal/serve ./internal/mods/labkvs

echo "== payload retention: go test -race -count=3 -cpu 1,2,8 -run 'TestServeCopyContract|TestFSCopyContract|TestRetain|TestServeClientNeverReads|TestServeMidFrameDisconnect|TestServeCloseWithBatchesInFlight|TestServeResultPinnedUntilWritten|TestServeConnectionLedger|CloseDuringAccept|TestGatherBatchDoesNotAllocate|TestPipelineWindowAllocations|TestSparseStore|TestDevice|TestDriver' ./internal/experiments ./internal/mods/lru ./internal/serve ./internal/device ./internal/mods/driver =="
go test -race -count=3 -cpu 1,2,8 -run 'TestServeCopyContract|TestFSCopyContract|TestRetain|TestServeClientNeverReads|TestServeMidFrameDisconnect|TestServeCloseWithBatchesInFlight|TestServeResultPinnedUntilWritten|TestServeConnectionLedger|CloseDuringAccept|TestGatherBatchDoesNotAllocate|TestPipelineWindowAllocations|TestSparseStore|TestDevice|TestDriver' ./internal/experiments ./internal/mods/lru ./internal/serve ./internal/device ./internal/mods/driver

echo "== streamed completions: go test -race -tags labstor_debug -count=3 -cpu 1,2,8 -run 'TestStreamedCompletion|TestServeStreamsCompletions|TestCompleterWritesBatchAtMostTwice|TestParkedWorker|Handshake|Wait' ./internal/runtime ./internal/serve =="
go test -race -tags labstor_debug -count=3 -cpu 1,2,8 -run 'TestStreamedCompletion|TestServeStreamsCompletions|TestCompleterWritesBatchAtMostTwice|TestParkedWorker|Handshake|Wait' ./internal/runtime ./internal/serve

echo "== golden tables: go test -count=1 -cpu 1,2,8 -run TestGoldenTables ./internal/experiments =="
go test -count=1 -cpu 1,2,8 -run TestGoldenTables ./internal/experiments

for ex in examples/*/; do
	echo "== examples: go run ./$ex =="
	go run "./$ex" >/dev/null
done

echo "== check: OK =="
