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

echo "== BenchmarkPrepare and BenchmarkLoad still compile and run (one iteration; bench/ measures, this does not)"
go test -run '^$' -bench BenchmarkPrepare -benchtime 1x ./internal/transform/
go test -run '^$' -bench BenchmarkLoad -benchtime 1x .

echo "== counts for CHANGES.md (ROADMAP aim 2 and items 1 and 7: all of them go down)"
gofiles() { find . -name '*.go' ! -path '*/testdata/*' ! -path './bench/out/*' "$@" -print0; }
echo "non-test Go lines:      $(gofiles ! -name '*_test.go' | xargs -0 cat | wc -l)"
echo "  internal/bus:         $(gofiles ! -name '*_test.go' -path './internal/bus/*' | xargs -0 cat | wc -l)"
echo "    internal/bus/internal/routing: $(gofiles ! -name '*_test.go' -path './internal/bus/internal/routing/*' | xargs -0 cat | wc -l)"
echo "    internal/bus/tcp.go: $(wc -l < internal/bus/tcp.go)"
echo "  internal/archlint:    $(gofiles ! -name '*_test.go' -path './internal/archlint/*' | xargs -0 cat | wc -l) (target <= 1300)"
echo "test Go lines:          $(gofiles -name '*_test.go' | xargs -0 cat | wc -l)"
echo "time.Sleep( in tests:   $(gofiles -name '*_test.go' | xargs -0 cat | grep -c 'time\.Sleep(') (target <= 20)"
echo "spawn sites:            $(gofiles ! -name '*_test.go' | xargs -0 cat | grep -c '//archlint:spawn')"
# Every wait and timestamp reads one clock.Clock (internal/clock); what is
# left on the system clock is the socket deadlines, which the kernel compares
# with real time. archlint only names time.Sleep in its messages.
# The values an embedder can set on the application and a replica
# supervisor: one field per line of each struct. A struct that is not there
# fails the script (an assignment's failed substitution does, under set -e)
# rather than counting 0.
fields() { awk -v t="type $2 struct {" '$0 == t {in_t = 1; next} in_t && /^}/ {exit} in_t && /^\t[A-Z][A-Za-z0-9]* / {n++} END {if (!in_t) {print "fields: no " t " in " FILENAME > "/dev/stderr"; exit 1} print n + 0}' "$1"; }
app_options=$(fields reconf.go Config)
supervisor_options=$(fields internal/reconfig/supervisor.go SupervisorConfig)
echo "settable options:       $((app_options + supervisor_options))"
# The options a bus is built with (a swap of one for another shows here).
echo "bus options:            $(gofiles ! -name '*_test.go' -path './internal/bus/*' | xargs -0 cat | grep -c ') BusOption {')"
echo "wall-clock call sites:  $(gofiles ! -name '*_test.go' ! -path './internal/clock/*' ! -path './examples/*' ! -path './cmd/*' ! -path './bench/*' ! -path './internal/archlint/*' | xargs -0 cat | grep -E 'time\.(Now|Since|Until|After|AfterFunc|NewTimer|NewTicker|Tick|Sleep)\b' | grep -cvE '^[[:space:]]*//') (target 2: the socket deadlines)"

echo "== go test -race, the concurrency-heavy packages"
go test -race ./internal/bus/... ./internal/reconfig/... ./internal/mh/... ./internal/ring/... ./internal/interp/... ./internal/replay/... ./internal/telemetry/trace/...
go test -race -run '^(TestQuiesceIdleModule|TestQuiesceWaitsForUnitCompletion|TestQuiesceTimeout|TestManyUnitsUnderContention)$' .

echo "== one processor, where a write's hand-off runs the reader it woke before the writer goes on: GOMAXPROCS=1 go test -count=1 ./internal/bus/... ./internal/mh/... ., then the four hand-off tests -race -count=50"
GOMAXPROCS=1 go test -count=1 ./internal/bus/... ./internal/mh/... .
go test -race -count=50 -run '^(TestHandOffFromIdleModule|TestNoHandOffWithInputQueued|TestNoHandOffFromDriver|TestHandOffAfterWholeBatch)$' ./internal/bus/

echo "== one lowered program under eight interpreters (the state a module shares with its clones and replicas, racy x10)"
go test -race -count=10 -run TestLoweredProgramSharedAcrossGoroutines ./internal/interp/

echo "== calls on the interpreter's own frame stack: evaluation order as gc, work per call, a 10 000-deep recursion, the deep descent benchmark (one iteration)"
go test -count=1 -run 'TestCallsRunBeforeOperands|TestCallWork|TestDeepRecursion' ./internal/interp/
go test -run '^$' -bench BenchmarkDeepDescent -benchtime 1x ./internal/interp/

echo "== the ring's slots written in place under eight writers: readers get untorn copies, a lapped writer drops its own record, copies outlive two more laps (racy x10)"
go test -race -count=10 -run 'TestReadersGetUntornCopies|TestConcurrentWritersWrapping|TestLappedWriterDoesNotRegressSlot' ./internal/ring/
go test -race -count=10 -run 'TestConcurrentReadersGetUntornRecords|TestCopiesOutliveLaps|TestConcurrentAppendSharedHandle' ./internal/replay/

echo "== the delivery log's append, once (two queues, traced and recorded, the log lapped first; bench/ measures, this does not)"
go test -run '^$' -bench BenchmarkAppend -benchtime 1x ./internal/replay/

echo "== the delivery log: each reader the same with the other writer on and off, every view admits its losses (racy x20)"
go test -race -count=20 -run 'TestReplayViewIgnoresTracing|TestSpanViewIgnoresRecording|TestRingsAdmitLosses' .

echo "== views never run ahead of the accounting: Stats counts a delivery before its reader can see it, one ring publication per traced and recorded delivery (racy x200)"
go test -race -count=200 -run '^TestOnePublicationPerDelivery$' .

echo "== Figure 3's move mid-recursion, hand-instrumented, interpreted and transformed: every request taken before a reading is fed, every reply awaited with a deadline (racy x20)"
go test -race -count=20 -run '^(TestMoveDuringRecursion|TestMoveDuringRecursionInterpreted|TestMoveDuringRecursionTransformed)$' ./internal/mh/ ./internal/interp/ ./internal/transform/

echo "== the queue package's taken slot across grow, snapshot, drain and restore, a snapshot that sees every claimed message (racy x200), and the bus's memoised route across Rebind and RemoveGroupMember (racy x20), each counted"
passes=$({
	go test -race -count=200 -v -run '^TestTakenItemStaysValid$' ./internal/bus/internal/queue/
	go test -race -count=20 -v -run '^TestMemoisedRouteDroppedOnTopologyChange$' ./internal/bus/
} | grep -cE '^--- PASS: (TestTakenItemStaysValid|TestMemoisedRouteDroppedOnTopologyChange) ' || true)
if [ "$passes" -ne 220 ]; then
	echo "taken slot and memoised route: $passes of 220 runs passed" >&2
	exit 1
fi
echo "220 of 220 runs passed"

echo "== the queue's claim, publish and fence protocol, run: concurrent histories of the shipped bus checked for linearizability (racy, GOMAXPROCS 1, 2 and 4, x10 each, 20 seeds a run, counted), then two readers parked on one queue (racy x50)"
passes=$(for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -race -count=10 -v -run '^TestBusLinearizable$' ./internal/bus/ -args -lin.seeds=20
done | grep -cE '^--- PASS: TestBusLinearizable ' || true)
if [ "$passes" -ne 30 ]; then
	echo "linearizability: $passes of 30 runs passed" >&2
	exit 1
fi
echo "30 of 30 runs passed"
go test -race -count=50 -run '^TestTwoReadersNoLostWakeup$' ./internal/bus/internal/queue/

echo "== every test that feeds a reading once a reconfiguration signal is pending (afterSignal): one processor, racy x100, counted"
signal_tests='TestReplaceRollbackFaultMatrix|TestReplaceFaultFreeEmptyRollback|TestReplacePostCommitFaultCompletesForward|TestConcurrentReplaceFailsFast|TestConcurrentReplicateRemoveRefusedDuringReplace|TestRollbackQueueGaugeMatchesDrainable|TestObsMetricsEndpoint|TestMoveLogsInCommitOrder|TestQuiesceAnnotatedWithQueuedTraces|TestQueueDepthGaugesConsistentAfterRollback|TestMonitorTopologyBeforeAfter|TestIncompatibleUpdateFailsLoudly|TestCompatibleUpdateCarriesState|TestPreflightReplayCommits|TestControlProtocol'
passes=$(GOMAXPROCS=1 go test -race -count=100 -v -run "^($signal_tests)\$" . | grep -cE "^--- PASS: ($signal_tests) " || true)
if [ "$passes" -ne 1500 ]; then
	echo "afterSignal users: $passes of 1500 runs passed" >&2
	exit 1
fi
echo "1500 of 1500 runs passed"

echo "== the routing model: seeded topology edits, writes and reads from one goroutine against a reference of maps and slices (racy x3)"
go test -race -count=3 -run '^TestModelTopologyAndTraffic$' ./internal/bus/

echo "== the one commit: a stale route across every topology-changing method, DeleteInstance against Rebind cq, every logging call's records in the log by its return, concurrent edits serialized with none lost (racy x20)"
go test -race -count=20 -run 'TestStaleRouteAcrossEveryTopologyChange|TestDeleteInstanceVsRebindMoveQueue|TestEventLoggedByReturn|TestConcurrentEditsSerialize' ./internal/bus/

echo "== both ends of a TCP attachment: parked calls end with their connection, wrong frames end it, concurrent readers of one interface take each message once (racy x20)"
go test -race -count=20 -run 'TestRemote|TestParkedCalls|TestClientRefuses|TestServerClose|TestGarbageKills' ./internal/bus/

echo "== liveness on bit-vectors: the map-based reference agrees at every statement of the corpus, and the work per procedure does not grow with statements x variables"
go test -count=1 -run 'TestLivenessMatchesReference|TestAnalyzeWork' ./internal/liveness/

echo "== Load runs the woven AST: run-time errors cite the source, the printed text serves what the AST serves, two checks per Prepare and the Info flatten and hoist keep equal to a fresh check's, Lower's cells as the syntactic rule had them"
go test -count=1 -run 'TestRuntimeErrorCitesSource|TestWovenTextRunsAsLowered|TestPipelineEquivalenceProperty|TestPrepareWork' ./internal/transform/
go test -count=1 -run 'TestFlattenEquivalenceProperty|TestFlattenKeepsPointsInFlatOrder' ./internal/flatten/
go test -count=1 -run 'TestAddrTakenMatchesReference' ./internal/interp/

echo "== every test that waited out time or a state with a sleep, now on the virtual clock or on what it waits for (racy x50)"
go test -race -count=50 -run 'TestWait|TestFireDropAndDelay|TestQuiesce|TestManyUnitsUnderContention|TestTracerTimeline|TestSnapshotConcurrent|TestRunTimeoutCutsOffStuckBody|TestStartStop|TestCounterDeltas|TestVirtual|TestZeroClockIsReal|TestHealthy|TestMainCleanExitOnDelete' \
	./internal/clock/ . ./internal/ring/ ./internal/faultinject/ ./internal/telemetry/... ./internal/replay/rerun/ ./mhrt/
go test -race -count=50 -run 'TestRemoteBlockingRead|TestRemoteSignalPush|TestRemoteDeletionNotice|TestRemoteConnectionLoss|TestServerClose|TestDeleteInstanceWakesReaders|TestDivulgeInstallMoveState|TestAwaitStateStopped|TestConcurrentRebindVsSend|TestRebindUnderTraffic|TestStaleRouteAcrossEveryTopologyChange' ./internal/bus/
go test -race -count=50 -run 'TestMoveDuringRecursion$|TestReadOnDeletedInstanceTerminates|TestUnreconfiguredRunMatches|TestSleep|TestStopSignalTerminates|TestSignalSetsFlagOnlyAfterInit' ./internal/mh/
go test -race -count=50 -run 'TestMutualRecursionMigration|TestMigrationSweep|TestMultiFileMigration|TestDeadPointerLocalOmitted|TestHoistedArgumentsMigration|TestMultiHopCallChain|TestTransformedBehaviorUnchanged|TestMultiplePointsShareStructure|TestRichControlFlowMigration|TestMoveDuringRecursionTransformed' ./internal/transform/
go test -race -count=50 -run 'TestMoveDuringRecursionInterpreted|TestInstrumentedIdlePath|TestInterpretedModuleOverTCP' ./internal/interp/
go test -race -count=50 -run 'TestSupervisor|TestPlanIsWhatRuns|TestScriptRollbackFaultMatrix|TestMoveModuleScript|TestQueueMoveNoLoss|TestUpdateScript' ./internal/reconfig/
go test -race -count=50 -run 'TestConfigClockDrivesTheApp|TestReplaceRollbackFaultMatrix|TestReplaceFaultFreeEmptyRollback|TestReplacePostCommitFaultCompletesForward|TestConcurrentReplaceFailsFast|TestReplicateRollbackOnRebindFault|TestConcurrentReplicateRemoveRefusedDuringReplace|TestRollbackQueueGaugeMatchesDrainable|TestMonitorTopologyBeforeAfter|TestIncompatibleUpdateFailsLoudly|TestCompatibleUpdateCarriesState|TestCompiledModuleMigration|TestObsHealthFlipsDuringQuiesce|TestObsTimeseriesHealthEvents|TestPreflightReplay|TestPreflightVeto|TestSelfHealDegradedReplicaReplaced|TestSelfHealChaosKillUnderLoad|TestControlProtocol|TestControlObservabilityOps|TestQuiesceAnnotatedWithQueuedTraces|TestQueueDepthGaugesConsistentAfterRollback' .
go test -race -count=50 ./cmd/reconfigctl/
# On its own: polybus binds ports a probe found free, and the clients of a
# package tested beside it could take one in between.
go test -race -count=50 ./cmd/polybus/
# The module tools: the analyzer gate, the one module-directory reader, and
# a recorded window replayed offline.
go test -race -count=3 ./cmd/mhgen/ ./cmd/mhlint/ ./cmd/mhreplay/

echo "== one failure detector: the supervisor's exit reports and verdicts, a rebuild on the report with no time advanced, one pass per window roll, the stall rule, labels from the real sites, no false stall under CPU load (racy x20)"
go test -race -count=20 -run 'TestSupervisor|TestMetricAttribution' ./internal/reconfig/
go test -race -count=20 ./internal/telemetry/health/
go test -race -count=20 -run 'TestSelfHealNoFalseStallUnderCPULoad' .

echo "== the selfheal example, twenty runs in a row (a healthy member marked out under CPU load prints detected 2)"
go test -count=20 -failfast -run 'TestExamplesRun/selfheal' .

echo "== fault-injection matrix (every script killed before every step of its own table, and at each substrate failpoint, twice, racy)"
go test -run 'Fault|Rollback|Concurrent' -race -count=2 ./...

echo "== fuzzers on what a socket or a file feeds (10 s each: wire frames, both ends of a connection, record spills, portable values and states, module sources, specifications, operator requests)"
go test -run '^$' -fuzz '^FuzzFrame$' -fuzztime 10s ./internal/bus/
go test -run '^$' -fuzz '^FuzzConn$' -fuzztime 10s ./internal/bus/
go test -run '^$' -fuzz '^FuzzReadLog$' -fuzztime 10s ./internal/replay/
go test -run '^$' -fuzz '^FuzzDecodeValue$' -fuzztime 10s ./internal/codec/
go test -run '^$' -fuzz '^FuzzDecodeState$' -fuzztime 10s ./internal/codec/
go test -run '^$' -fuzz '^FuzzPrepare$' -fuzztime 10s ./internal/analyze/
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/mil/
go test -run '^$' -fuzz '^FuzzOpRequest$' -fuzztime 10s .

echo "== selfheal chaos matrix (replicas 3, 16 senders, crash-triggered rebuilds at checkpoint intervals 2, 4 and 32, racy)"
go test -run 'TestSelfHeal|TestReplicasObservability' -race -count=1 .

echo "== record/replay determinism gate (identical logs, exact reproduction, gated cutover, racy)"
go test -run 'TestRecordDeterminism|TestReplayReproduces|TestPreflightReplay|TestSpillGoldenBytes|TestRunReplaysWindow' -race -count=1 ./...

echo "ok"
