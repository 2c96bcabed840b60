#!/bin/sh
# Tier-2 verification: static vetting plus race-detector runs of the
# concurrency-heavy packages (the message bus, the quiescence protocol, and
# the interpreter, whose lowered programs are shared across goroutines). Tier-1 (go build ./... && go test ./...) stays the gate for
# every change; run this before touching the runtime or shipping a PR.
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

echo "== non-test Go lines (ROADMAP aim 2: this number goes down)"
find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './bench/out/*' -print0 | xargs -0 cat | wc -l

echo "== go test -race ./internal/bus/... ./internal/quiesce/... ./internal/reconfig/... ./internal/mh/... ./internal/ring/... ./internal/interp/... ./internal/replay/... ./internal/telemetry/trace/..."
go test -race ./internal/bus/... ./internal/quiesce/... ./internal/reconfig/... ./internal/mh/... ./internal/ring/... ./internal/interp/... ./internal/replay/... ./internal/telemetry/trace/...

echo "== one lowered program under eight interpreters (the state a module shares with its clones and replicas, racy x10)"
go test -race -count=10 -run TestLoweredProgramSharedAcrossGoroutines ./internal/interp/

echo "== the ring's record allocator under eight writers (blocks shared by every traced and recorded delivery, racy x10)"
go test -race -count=10 -run TestAllocConcurrent ./internal/ring/

echo "== fault-injection matrix (kill Replace at every failpoint, twice, racy)"
go test -run 'Fault|Rollback|Concurrent' -race -count=2 ./...

echo "== fuzzers on what a socket or a state file feeds (10 s each: wire frames, portable values and states)"
go test -run '^$' -fuzz '^FuzzFrame$' -fuzztime 10s ./internal/bus/
go test -run '^$' -fuzz '^FuzzDecodeValue$' -fuzztime 10s ./internal/codec/
go test -run '^$' -fuzz '^FuzzDecodeState$' -fuzztime 10s ./internal/codec/

echo "== replace latency artifact (with and without injected faults)"
RECONFIG_BENCH_JSON="$PWD/BENCH_reconfig_latency.json" \
	go test -run TestRollbackLatencyArtifact -count=1 .
cat BENCH_reconfig_latency.json

echo "== telemetry overhead artifact (flag test, message path, capture amortization)"
RECONFIG_OVERHEAD_JSON="$PWD/BENCH_overhead.json" \
	go test -run TestOverheadArtifact -count=1 .
cat BENCH_overhead.json

echo "== bus throughput artifact (1/4/16 concurrent senders over routing snapshots)"
# Snapshot the previous run's artifact as the regression baseline; on a
# fresh checkout the first run gates only against the absolute floors.
baseline=$(mktemp)
have_baseline=0
if [ -f BENCH_bus_throughput.json ]; then
	cp BENCH_bus_throughput.json "$baseline"
	have_baseline=1
fi
RECONFIG_BUS_THROUGHPUT_JSON="$PWD/BENCH_bus_throughput.json" \
	go test -run TestBusThroughputArtifact -count=1 .
cat BENCH_bus_throughput.json
if [ "$have_baseline" -eq 0 ]; then
	cp BENCH_bus_throughput.json "$baseline"
fi

echo "== timeseries overhead artifact (roller cost per window, hot path with rollups on/off)"
RECONFIG_TIMESERIES_JSON="$PWD/BENCH_timeseries_overhead.json" \
	go test -run TestTimeseriesOverheadArtifact -count=1 .
cat BENCH_timeseries_overhead.json

echo "== perf regression gate (scaling ratio, single-sender ns/msg, telemetry-on and rollups-on budgets)"
go run ./cmd/perfgate -baseline "$baseline" \
	-current BENCH_bus_throughput.json -overhead BENCH_overhead.json \
	-timeseries BENCH_timeseries_overhead.json
rm -f "$baseline"

echo "== selfheal chaos matrix (replicas 3, 16 senders, crash-triggered rebuilds, racy)"
go test -run 'TestSelfHeal|TestReplicasObservability' -race -count=1 .

echo "== selfheal recovery artifact (checkpoint interval vs recovery time)"
RECONFIG_SELFHEAL_JSON="$PWD/BENCH_selfheal_recovery.json" \
	go test -race -run TestSelfHealRecoveryArtifact -count=1 .
cat BENCH_selfheal_recovery.json

echo "== record/replay determinism gate (identical logs, exact reproduction, gated cutover, racy)"
go test -run 'TestRecordDeterminism|TestReplayReproduces|TestPreflightReplay|TestSpillGoldenBytes|TestRunReplaysWindow' -race -count=1 ./...

echo "ok"
