#!/usr/bin/env bash
# Do two sets of runs of the same code agree? Makes what the driver makes: two
# sets of RUNS runs of every workload, every run with another seed, and for
# each workload x end-to-end metric the median of each set and the spread of
# each set -- the distance between the first and the third quartile of its
# values, as statistics.quantiles(values, n=4) gives them, as a share of
# their median. Exits non-zero when a spread (setup_s excepted) is wider than
# the metric's bound in BENCHMARK.json, when the second set's median is worse
# than the first's by more than the bound, when an operation failed, or when
# a run reports correct=false. Takes about 2 x RUNS x 5 x run_seconds: 35
# minutes.
#
#   bash bench/agree.sh [RUNS=10] [FIRST_SEED=1]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
first="${2:-1}"
spec="$here/../BENCHMARK.json"
mkdir -p "$here/out"
tmp="$(mktemp -d "$here/out/agree.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
secs="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")"
for set in 1 2; do
  for ((i = 0; i < runs; i++)); do
    seed=$((first + (set - 1) * runs + i))
    for w in $workloads; do
      bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 2>"$tmp/err" | tail -n 1 >"$tmp/$w.$set.$i.json"
      if grep -q "is abandoned" "$tmp/err"; then # keep the goroutine dump of a hung trial
        cp "$tmp/err" "$here/out/hung-$w-$seed.err"
        echo "$w seed $seed: a trial hung, see bench/out/hung-$w-$seed.err" >&2
      fi
    done
    echo "set $set: run $((i + 1)) of $runs done" >&2
  done
done
python3 - "$spec" "$tmp" "$runs" <<'PY'
import json, statistics, sys
spec, tmp, runs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

bad = 0
print(f"{'workload':20s} {'metric':24s} {'median 1':>13s} {'median 2':>13s} {'spread 1':>9s} {'spread 2':>9s} {'worse by':>9s} {'bound':>6s}")
for w in (w["name"] for w in spec["workloads"]):
    sets = [[json.load(open(f"{tmp}/{w}.{s}.{i}.json")) for i in range(runs)] for s in (1, 2)]
    failed = sum(r["failed"] for rs in sets for r in rs)
    attempted = sum(r["attempted"] for rs in sets for r in rs)
    if not all(r["correct"] for rs in sets for r in rs):
        print(f"{w}: a run reported correct=false")
        bad += 1
    for m in spec["end_to_end"]:
        a, b = ([r["metrics"][m["name"]]["value"] for r in rs] for rs in sets)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        flags = []
        if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
            flags.append("spread")
        if worse > m["bound"]:
            flags.append("medians")
        bad += len(flags)
        note = "  <-- " + ", ".join(flags) + " outside bound" if flags else ""
        print(f"{w:20s} {m['name']:24s} {ma:13.6g} {mb:13.6g} {sa:9.1%} {sb:9.1%} {worse:+9.1%} {m['bound']:6.0%}{note}")
    print(f"{w:20s} failed {failed} of {attempted} attempted operations" + ("  <-- an operation failed" if failed else ""))
    bad += failed > 0
sys.exit(1 if bad else 0)
PY
