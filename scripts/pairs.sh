#!/usr/bin/env bash
# Interleaved A/B pairs of the frozen benchmark: a parent commit against
# the working tree, the way every performance claim here is measured
# (ROADMAP "Open items"; the method of bench/aa.sh with two binaries).
#
#   scripts/pairs.sh <parent-ref> --workload W [--seed S] [--pairs N]
#
#   scripts/pairs.sh HEAD~1 --workload sim_sweep
#   scripts/pairs.sh 8646a99 --workload plan_mix --seed 20150525 --pairs 12
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
# Read-only on bench/ and BENCHMARK.json. Raw per-run values land in
# target/pairs/<workload>-<seed>.tsv. One pair takes about 45 s.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() {
    echo "usage: scripts/pairs.sh <parent-ref> --workload W [--seed S] [--pairs N]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_ref="$1"
shift
workload=""
seed=1
pairs=10
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:-}"; shift 2 ;;
        --seed) seed="${2:-}"; shift 2 ;;
        --pairs) pairs="${2:-}"; shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$workload" ] || usage
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
runs="$root/target/pairs/$workload-$seed.tsv"
printf 'pair\tside\tmetric\tvalue\n' >"$runs"

# One run of one side, from that side's own tree: the gated metrics are
# the last line of standard output, the time-based ones the `timing:`
# line of standard error.
run_side() {
    local pair="$1" side="$2" tree bin
    if [ "$side" = parent ]; then
        tree="$tmp/parent" bin="$tmp/target/release/opass-benchmark"
    else
        tree="$root" bin="$root/bench/target/release/opass-benchmark"
    fi
    echo "pair $pair/$pairs: $side" >&2
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
' "$pair" "$side" "$tmp/last.err" >>"$runs"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run_side "$pair" "$side"
    done
done

python3 - "$runs" "$root/BENCHMARK.json" "$workload" "$seed" "$parent_commit" <<'EOF'
import collections, csv, json, statistics, sys

runs, contract, workload, seed, parent = sys.argv[1:6]
contract = json.load(open(contract))
gated = {m["name"]: m["better"] for m in contract["end_to_end"]}
values = collections.defaultdict(dict)
for row in csv.DictReader(open(runs), delimiter="\t"):
    values[row["metric"], row["side"]][int(row["pair"])] = float(row["value"])

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]

n = len(values[next(iter(gated)), "parent"])
print(f"{workload} seed {seed}: {n} pairs, parent {parent[:12]} vs the working tree\n")
print(f'{"gated metric":<14} {"parent q1":>11} {"median":>11} {"q3":>11} '
      f'{"change q1":>11} {"median":>11} {"q3":>11} {"change":>8} {"won":>6}  beyond parent IQR')
for name in gated:
    p, c = values[name, "parent"], values[name, "change"]
    pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
    sign = 1 if gated[name] == "lower" else -1
    won = sum(sign * (p[i] - c[i]) > 0 for i in p)
    rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
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
EOF
