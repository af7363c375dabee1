#!/usr/bin/env bash
# Interleaved A/B pairs of the frozen benchmark: a parent commit against
# the working tree, the way every performance claim here is measured
# (ROADMAP "Open items"; the method of bench/aa.sh with two binaries).
#
#   scripts/pairs.sh <parent-ref> --workload W [--seed S] [--pairs N]
#   scripts/pairs.sh <parent-ref> --all [--seed S] [--pairs N]
#
#   scripts/pairs.sh HEAD~1 --workload sim_sweep
#   scripts/pairs.sh 8646a99 --workload plan_mix --seed 20150525 --pairs 12
#   scripts/pairs.sh HEAD~1 --all
#
# Exports <parent-ref> into a temporary directory outside the repository
# (`git archive` under $TMPDIR, removed on exit — nothing is registered
# in .git), builds both bench/ trees offline, the parent's into a target
# directory of its own next to its export and the working tree's into
# bench/target, and runs N pairs (default 10, seed 1, --trace 0, the run
# length BENCHMARK.json fixes), alternating which side goes first. Prints,
# per gated metric, both medians and quartiles, the pairs the change won
# (ties count for neither side) and whether the medians differ by more
# than the distance between the parent's quartiles; then the medians of
# the `timing:` line, which are reported, never gated. A run that is not
# "correct":true with "failed":0 aborts the comparison.
#
# --all runs every workload BENCHMARK.json declares, in turn, against
# that one build of each side — an issue's claim and its "must not move"
# rows in one invocation — and ends with one table, workload x gated
# metric, each row with a verdict:
#   better      the change won at least nine tenths of the pairs and the
#               medians differ by more than the parent's quartile
#               distance, or every run of the change beat every run of
#               the parent
#   WORSE       the change's median is worse than the parent's by more
#               than the metric's bound, and by more than the parent's
#               quartile distance
#   unresolved  worse by more than the bound but within the parent's
#               quartile distance, or the parent's quartile distance is
#               itself wider than the bound: these runs cannot tell
#   within      none of the above: no worse than the bound allows
# with `equal` added where every run of both sides read one value.
#
# Read-only on bench/ and BENCHMARK.json. Raw per-run values land in
# target/pairs/<workload>-<seed>.tsv. One pair takes about 45 s.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() {
    echo "usage: scripts/pairs.sh <parent-ref> (--workload W | --all) [--seed S] [--pairs N]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_ref="$1"
shift
workloads=""
all=0
seed=1
pairs=10
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads="${2:-}"; shift 2 ;;
        --all) all=1; shift ;;
        --seed) seed="${2:-}"; shift 2 ;;
        --pairs) pairs="${2:-}"; shift 2 ;;
        *) usage ;;
    esac
done
if [ "$all" -eq 1 ]; then
    [ -z "$workloads" ] || usage
    workloads="$(python3 -c '
import json, sys
print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$root/BENCHMARK.json")"
fi
[ -n "$workloads" ] || usage
parent_commit="$(git -C "$root" rev-parse --verify --quiet "$parent_ref^{commit}")" || {
    echo "error: $parent_ref is not a commit" >&2
    exit 2
}

tmp="$(mktemp -d "${TMPDIR:-/tmp}/opass-pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$parent_commit" | tar -x -C "$tmp/parent"

# Each build also refuses a contract its binary does not implement.
echo "building parent $parent_commit" >&2
CARGO_TARGET_DIR="$tmp/target" bash "$tmp/parent/bench/run.sh" \
    --contract "$tmp/parent/BENCHMARK.json" >/dev/null
echo "building the working tree" >&2
CARGO_TARGET_DIR="$root/bench/target" bash "$root/bench/run.sh" \
    --contract "$root/BENCHMARK.json" >/dev/null
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")"

mkdir -p "$root/target/pairs"

# One run of one side, from that side's own tree: the gated metrics are
# the last line of standard output, the time-based ones the `timing:`
# line of standard error.
run_side() {
    local workload="$1" pair="$2" side="$3" tree bin
    if [ "$side" = parent ]; then
        tree="$tmp/parent" bin="$tmp/target/release/opass-benchmark"
    else
        tree="$root" bin="$root/bench/target/release/opass-benchmark"
    fi
    echo "$workload pair $pair/$pairs: $side" >&2
    (cd "$tree" && "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>"$tmp/last.err" | tail -n 1) |
        python3 -c '
import json, sys
pair, side, log = sys.argv[1:4]
result = json.loads(sys.stdin.read())
assert result["correct"] and result["failed"] == 0, result
timing = [l for l in open(log) if l.startswith("timing: ")][-1]
metrics = {**result["metrics"], **json.loads(timing[len("timing: "):])}
for name, m in metrics.items():
    print(pair, side, name, repr(m["value"]), sep="\t")
' "$pair" "$side" "$tmp/last.err" >>"$root/target/pairs/$workload-$seed.tsv"
}

# `report detail W` prints one workload's block, `report table W...` the
# closing table of --all.
report() {
    python3 - "$root/target/pairs" "$root/BENCHMARK.json" "$seed" "$parent_commit" "$@" <<'EOF'
import collections, csv, json, statistics, sys

runs_dir, contract, seed, parent, mode, *workloads = sys.argv[1:]
gated = {m["name"]: m for m in json.load(open(contract))["end_to_end"]}

def load(workload):
    values = collections.defaultdict(dict)
    for row in csv.DictReader(open(f"{runs_dir}/{workload}-{seed}.tsv"), delimiter="\t"):
        values[row["metric"], row["side"]][int(row["pair"])] = float(row["value"])
    return values

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]

def compare(values, name):
    """Both sides' runs and quartiles, which way is better, pairs the
    change won, and the relative change of the median."""
    p, c = values[name, "parent"], values[name, "change"]
    pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
    sign = 1 if gated[name]["better"] == "lower" else -1
    won = sum(sign * (p[i] - c[i]) > 0 for i in p)
    rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    return p, c, pq, cq, sign, won, rel

def verdict(name, p, c, pq, cq, sign, won, rel):
    n, bound = len(p), gated[name]["bound"]
    iqr, diff, worse_by = pq[2] - pq[0], abs(cq[1] - pq[1]), sign * rel
    every_run_better = min(sign * x for x in p.values()) > max(sign * x for x in c.values())
    if (10 * won >= 9 * n and diff > iqr and worse_by < 0) or every_run_better:
        word = "better"
    elif worse_by > bound:
        word = "WORSE" if diff > iqr else "unresolved"
    elif pq[1] and iqr / abs(pq[1]) > bound:
        word = "unresolved"
    else:
        word = "within"
    if len(set(p.values()) | set(c.values())) == 1:
        word += ", equal"
    return word

if mode == "detail":
    (workload,) = workloads
    values = load(workload)
    n = len(values[next(iter(gated)), "parent"])
    print(f"{workload} seed {seed}: {n} pairs, parent {parent[:12]} vs the working tree\n")
    print(f'{"gated metric":<14} {"parent q1":>11} {"median":>11} {"q3":>11} '
          f'{"change q1":>11} {"median":>11} {"q3":>11} {"change":>8} {"won":>6}  beyond parent IQR')
    for name in gated:
        p, c, pq, cq, sign, won, rel = compare(values, name)
        # One pair has no quartiles to hold the difference against.
        beyond = "-" if n < 2 else "yes" if abs(cq[1] - pq[1]) > pq[2] - pq[0] else "no"
        print(f"{name:<14} {pq[0]:11.4f} {pq[1]:11.4f} {pq[2]:11.4f} "
              f"{cq[0]:11.4f} {cq[1]:11.4f} {cq[2]:11.4f} {rel:+8.2%} {won:>3}/{n:<2}  {beyond}")
    print(f'\n{"timing (not gated)":<18} {"parent median":>14} {"change median":>14} {"change":>8}')
    for name in sorted({m for m, _ in values} - set(gated)):
        pm = statistics.median(values[name, "parent"].values())
        cm = statistics.median(values[name, "change"].values())
        rel = (cm - pm) / pm if pm else 0.0
        print(f"{name:<18} {pm:14.3f} {cm:14.3f} {rel:+8.2%}")
    print()
else:
    print(f"all workloads, seed {seed}: parent {parent[:12]} vs the working tree\n")
    print(f'{"workload":<13} {"gated metric":<13} {"parent q1":>10} {"median":>10} {"q3":>10} '
          f'{"change q1":>10} {"median":>10} {"q3":>10} {"change":>8} {"won":>6}  verdict')
    for workload in workloads:
        values = load(workload)
        for name in gated:
            p, c, pq, cq, sign, won, rel = compare(values, name)
            print(f"{workload:<13} {name:<13} {pq[0]:10.4f} {pq[1]:10.4f} {pq[2]:10.4f} "
                  f"{cq[0]:10.4f} {cq[1]:10.4f} {cq[2]:10.4f} {rel:+8.2%} {won:>3}/{len(p):<2}  "
                  f"{verdict(name, p, c, pq, cq, sign, won, rel)}")
EOF
}

for workload in $workloads; do
    printf 'pair\tside\tmetric\tvalue\n' >"$root/target/pairs/$workload-$seed.tsv"
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run_side "$workload" "$pair" "$side"
        done
    done
    report detail "$workload"
done
if [ "$all" -eq 1 ]; then
    # shellcheck disable=SC2086  # one argument per workload
    report table $workloads
fi
