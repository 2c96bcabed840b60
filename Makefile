# Tier-1: the gate every change must pass (see ROADMAP.md).
.PHONY: test
test:
	go build ./... && go test ./...

# Architectural invariants: the self-hosting archlint run (AL001-AL014,
# no AL008: locking discipline — nothing blocks under Bus.mu, edit
# callbacks and *Locked methods included, and only edit and writeSlow take
# it —, snapshot protocol, hot-path allocations, spawn sites, layering, the
# bus ring's publish-last protocol, and one table-driven method-confinement
# pass serving AL002 trace minting, AL012 record appends, AL013's "only the
# commit fences, drains and restores a queue" and AL014
# observability-ring writes).
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
