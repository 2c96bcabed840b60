# Tier-1: the gate every change must pass (see ROADMAP.md).
.PHONY: test
test:
	go build ./... && go test ./...

# Architectural invariants: the self-hosting archlint run (AL001-AL014:
# locking discipline, snapshot protocol, hot-path allocations, journaled
# mutations, spawn sites, layering, the bus ring protocol, and one
# table-driven method-confinement pass serving AL002 trace minting, AL012
# record appends and AL014 observability-ring writes).
.PHONY: lint
lint:
	go run ./cmd/archlint ./...

# Tier-2: static vetting + race-detector runs of the concurrency-heavy
# packages. Run before touching bus/quiesce or shipping a PR.
.PHONY: check
check:
	./scripts/check.sh

# Benchmark artifacts: replace latency, steady-state overhead, multi-sender
# bus throughput and windowed rollup overhead, written as BENCH_*.json in
# the repo root.
.PHONY: bench
bench:
	RECONFIG_BENCH_JSON="$(CURDIR)/BENCH_reconfig_latency.json" \
		go test -run TestRollbackLatencyArtifact -count=1 .
	RECONFIG_OVERHEAD_JSON="$(CURDIR)/BENCH_overhead.json" \
		go test -run TestOverheadArtifact -count=1 .
	RECONFIG_BUS_THROUGHPUT_JSON="$(CURDIR)/BENCH_bus_throughput.json" \
		go test -run TestBusThroughputArtifact -count=1 .
	RECONFIG_TIMESERIES_JSON="$(CURDIR)/BENCH_timeseries_overhead.json" \
		go test -run TestTimeseriesOverheadArtifact -count=1 .
