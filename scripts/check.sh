#!/bin/sh
# Tier-2 verification: static checks, the benchmark harness's own tests, the
# three counts ROADMAP wants to go down, then the race detector, the fault
# matrix, the fuzzers and the chaos and replay gates. It measures nothing
# (bench/ does) and writes nothing into the working tree. Tier-1
# (go build ./... && go test ./...) stays the gate for every change; run this
# before touching the runtime or shipping a PR.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== archlint ./... (self-hosting architectural invariants)"
go run ./cmd/archlint ./...

echo "== bench/ harness (its own module: the root go test never compiles it)"
# A root-API change that breaks the frozen benchmark harness must fail
# here, not in the benchmark driver.
(cd bench && go vet ./... && go test ./...)

echo "== BenchmarkPrepare still compiles and runs (one iteration; bench/ measures, this does not)"
go test -run '^$' -bench BenchmarkPrepare -benchtime 1x ./internal/transform/

echo "== counts for CHANGES.md (ROADMAP aim 2 and items 1 and 7: all of them go down)"
gofiles() { find . -name '*.go' ! -path '*/testdata/*' ! -path './bench/out/*' "$@" -print0; }
echo "non-test Go lines:      $(gofiles ! -name '*_test.go' | xargs -0 cat | wc -l)"
echo "  internal/bus:         $(gofiles ! -name '*_test.go' -path './internal/bus/*' | xargs -0 cat | wc -l)"
echo "  internal/archlint:    $(gofiles ! -name '*_test.go' -path './internal/archlint/*' | xargs -0 cat | wc -l)"
echo "test Go lines:          $(gofiles -name '*_test.go' | xargs -0 cat | wc -l)"
echo "time.Sleep( in tests:   $(gofiles -name '*_test.go' | xargs -0 cat | grep -c 'time\.Sleep(') (target <= 20)"

echo "== go test -race, the concurrency-heavy packages"
go test -race ./internal/bus/... ./internal/quiesce/... ./internal/reconfig/... ./internal/mh/... ./internal/ring/... ./internal/interp/... ./internal/replay/... ./internal/telemetry/trace/...

echo "== one lowered program under eight interpreters (the state a module shares with its clones and replicas, racy x10)"
go test -race -count=10 -run TestLoweredProgramSharedAcrossGoroutines ./internal/interp/

echo "== the ring's record allocator under eight writers (blocks shared by every traced and recorded delivery, racy x10)"
go test -race -count=10 -run TestAllocConcurrent ./internal/ring/

echo "== a taken queue slot and a memoised route across grow, drain, restore, Rebind and RemoveGroupMember (racy x20)"
go test -race -count=20 -run 'TestTakenItemStaysValid|TestMemoisedRouteDroppedOnTopologyChange' ./internal/bus/

echo "== the one commit: a stale route across every topology-changing method, DeleteInstance against Rebind cq (racy x20)"
go test -race -count=20 -run 'TestStaleRouteAcrossEveryTopologyChange|TestDeleteInstanceVsRebindMoveQueue' ./internal/bus/

echo "== fault-injection matrix (every script killed before every step of its own table, and at each substrate failpoint, twice, racy)"
go test -run 'Fault|Rollback|Concurrent' -race -count=2 ./...

echo "== fuzzers on what a socket or a file feeds (10 s each: wire frames, record spills, portable values and states)"
go test -run '^$' -fuzz '^FuzzFrame$' -fuzztime 10s ./internal/bus/
go test -run '^$' -fuzz '^FuzzReadLog$' -fuzztime 10s ./internal/replay/
go test -run '^$' -fuzz '^FuzzDecodeValue$' -fuzztime 10s ./internal/codec/
go test -run '^$' -fuzz '^FuzzDecodeState$' -fuzztime 10s ./internal/codec/

echo "== selfheal chaos matrix (replicas 3, 16 senders, crash-triggered rebuilds at checkpoint intervals 2, 4 and 32, racy)"
go test -run 'TestSelfHeal|TestReplicasObservability' -race -count=1 .

echo "== record/replay determinism gate (identical logs, exact reproduction, gated cutover, racy)"
go test -run 'TestRecordDeterminism|TestReplayReproduces|TestPreflightReplay|TestSpillGoldenBytes|TestRunReplaysWindow' -race -count=1 ./...

echo "ok"
