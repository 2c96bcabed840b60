# Tier-1: the gate every change must pass (see ROADMAP.md).
.PHONY: test
test:
	go build ./... && go test ./...

# Architectural invariants: the self-hosting archlint run (AL001, AL004,
# AL007, AL009, AL010, AL013: type errors, nothing blocking while the
# routing writer lock is held — in the routing Committer's methods and the
# callbacks the bus hands it —, hot-path allocations, spawn sites, layering
# and the bus ring's publish-last protocol). Who may mint traces, append to
# the logs, fence queues or commit a routing table is the compiler's to
# check.
.PHONY: lint
lint:
	go run ./cmd/archlint ./...

# Tier-2: static checks, the benchmark harness's own tests, then the race
# detector, the fault matrix, the fuzzers and the chaos and replay gates.
# Measures nothing. Run before touching bus/quiesce or shipping a PR.
.PHONY: check
check:
	./scripts/check.sh

# The benchmark: bench/'s five workloads as the driver runs them (one JSON
# object per workload on standard output; bench/README.md says what each
# metric measures and how to pair runs for a claim). Builds into bench/out/.
.PHONY: bench
bench:
	for w in observed_stream wire_stream replace_under_load migrate_deep_stack bus_fanin; do \
		bash bench/run.sh --workload $$w --seed 7 --seconds 20 --trace 0 || exit 1; \
	done
