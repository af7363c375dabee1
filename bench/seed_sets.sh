#!/usr/bin/env bash
# The benchmark contract's own check: is the benchmark steady enough to
# gate with?
#
# Runs two sets of ten untraced runs per workload, every run with another
# seed (set 1: seeds 1-10, set 2: seeds 11-20), and prints per workload x
# metric each set's median, its spread (distance between the quartiles
# `statistics.quantiles(values, n=4)` gives, over the median) and how much
# worse set 2's median is than set 1's. Exits non-zero when a gated
# metric's spread (setup_s excepted, as in the contract) or worsening
# exceeds its bound. The time-based metrics of the phases are printed
# too; they are not gated.
#
#   bash bench/seed_sets.sh
#   WORKLOADS="plan_mix" bash bench/seed_sets.sh
#
# Raw per-run values land in bench/out/seed_sets/runs.tsv. Takes about 37
# minutes (2 sets x 10 seeds x 5 workloads x ~22 s).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
workloads="${WORKLOADS:-plan_mix serve_hot serve_churn trace_replay sim_sweep}"

cd "$root"
bash "$here/run.sh" --contract BENCHMARK.json >/dev/null
bin="${CARGO_TARGET_DIR:-$here/target}/release/opass-benchmark"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

mkdir -p "$here/out/seed_sets"
runs="$here/out/seed_sets/runs.tsv"
log="$here/out/seed_sets/last.err"
printf 'set\tworkload\tseed\tmetric\tvalue\n' >"$runs"
for set in 1 2; do
    for workload in $workloads; do
        for seed in $(seq $((set * 10 - 9)) $((set * 10))); do
            echo "set $set: $workload seed $seed" >&2
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                2>"$log" | tail -n 1 |
                python3 -c '
import json, sys
rep, workload, seed, log = sys.argv[1:5]
result = json.loads(sys.stdin.read())
assert result["correct"] and result["failed"] == 0, result
timing = [l for l in open(log) if l.startswith("timing: ")][-1]
metrics = {**result["metrics"], **json.loads(timing[len("timing: "):])}
for name, m in metrics.items():
    print(rep, workload, seed, name, repr(m["value"]), sep="\t")
' "$set" "$workload" "$seed" "$log" >>"$runs"
        done
    done
done

python3 - "$runs" BENCHMARK.json <<'EOF'
import collections, csv, json, statistics, sys

runs, contract = sys.argv[1:3]
gated = {m["name"]: m for m in json.load(open(contract))["end_to_end"]}
values = collections.defaultdict(list)
order = []
for row in csv.DictReader(open(runs), delimiter="\t"):
    key = (row["workload"], row["metric"])
    if key not in order:
        order.append(key)
    values[key, row["set"]].append(float(row["value"]))

def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

print(f'{"workload":<13} {"metric":<14} {"set1 median":>14} {"spread":>7} '
      f'{"set2 median":>14} {"spread":>7} {"worse by":>9} {"bound":>6}')
over = []
for key in order:
    workload, metric = key
    one, two = values[key, "1"], values[key, "2"]
    m1, m2 = statistics.median(one), statistics.median(two)
    lower_is_better = gated.get(metric, {}).get("better", "lower") == "lower"
    if metric == "work_per_s":
        lower_is_better = False
    worse = (m2 - m1) / m1 if lower_is_better else (m1 - m2) / m1
    s1, s2 = spread(one), spread(two)
    mark = ""
    if metric in gated:
        bound = gated[metric]["bound"]
        if worse > bound or (metric != "setup_s" and max(s1, s2) > bound):
            mark = "  OVER"
            over.append(key)
        bound = f"{bound:6.3f}"
    else:
        bound = "     -"
    print(f"{workload:<13} {metric:<14} {m1:14.4f} {s1:7.4f} {m2:14.4f} {s2:7.4f} "
          f"{worse:+9.4f} {bound}{mark}")
if over:
    print(f"\nFAIL: {len(over)} gated metric(s) spread or worsen beyond their bound", file=sys.stderr)
    sys.exit(1)
print("\nevery gated metric stays within its bound")
EOF
