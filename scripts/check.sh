#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, determinism linter, lints, build, tests.
# Offline-friendly: everything runs with --offline against the vendored
# dependencies, so it works without network access.
#
# Modes:
#   check.sh                 full gate (fmt, opass-lint, clippy, build, tests,
#                            then the frozen benchmark package bench/
#                            built against the workspace's public API)
#   check.sh --lint          determinism & invariant linter only: runs
#                            opass-lint over the workspace (config in
#                            lint.toml) and fails on any unsuppressed
#                            finding — including deny findings from the
#                            transitive call-graph pass — printing fix
#                            hints and archiving lint.sarif for CI diffing
#   check.sh --lint-timing   lint-throughput smoke: full-workspace lint
#                            (8 threads) must finish under the committed
#                            wall-time budget below
#   check.sh --bench-smoke   engine-throughput smoke: runs the bench_sim
#                            smoke scenario in release and fails if
#                            events/sec regressed >30% vs the committed
#                            BENCH_sim.json baseline
#   check.sh --serve-smoke   planning-service smoke: runs the bench_serve
#                            smoke scenarios in release — including the
#                            100k-stream multiplexed loadgen, which on a
#                            multi-core host asserts the sharded reactor
#                            sustains >=1.5x the 1-shard rate (on a
#                            single hardware thread the scaling curve is
#                            recorded informationally) — and fails if
#                            plans/sec regressed >30% vs the committed
#                            BENCH_serve.json baseline
#   check.sh --replan-smoke  incremental re-planning smoke: runs the
#                            bench_replan smoke scenarios in release —
#                            the 1% churn scenario (which itself asserts
#                            repair is >=5x faster than from-scratch) and
#                            the 10^5-chunk arena scenario (which asserts
#                            per-step repair is >=5x faster than the
#                            committed pre-arena sequential measurement)
#                            — and fails if steps/sec regressed >50% vs
#                            the committed BENCH_replan.json baseline
#   check.sh --place-smoke   placement-loop smoke: runs the bench_place
#                            smoke scenario in release (which itself
#                            asserts the closed loop buys a >=1.5x p99
#                            I/O improvement on a hot-spotted layout and
#                            that every round's delta replays cleanly)
#                            and fails if the p99 speedup regressed >10%
#                            vs the committed BENCH_place.json baseline
#   check.sh --trace-smoke   trace-pipeline smoke: runs the bench_trace
#                            smoke scenario in release (which itself
#                            asserts the 1BRC-style parallel parse is
#                            bit-identical at 1/2/8 threads and that
#                            replay-through-planner is deterministic) and
#                            fails if parse or replay records/sec
#                            regressed >50% vs the committed
#                            BENCH_trace.json baseline
#   check.sh --bench-run     benchmark dry run: builds the frozen bench/
#                            package as the full gate does, then runs what
#                            the pipeline runs — all five workloads once
#                            (--seed 1 --seconds 17 --trace 0, ~2 minutes)
#                            and `bench/run.sh --self-test` — and fails
#                            unless every result line reads
#                            "correct":true and "failed":0. Says before a
#                            PR leaves the machine what the pipeline would
#                            say about a benchmark that no longer runs
#                            (read-only on bench/). Also prints each
#                            workload's peak_rss_mib and fails when it
#                            exceeds that workload's ceiling in
#                            RSS_CEILING_MIB below, so the memory PRs
#                            (17, 22-25) cannot be undone silently. The
#                            ceilings are the seed-1 readings recorded in
#                            EXPERIMENTS.md plus 3 %; a PR that moves
#                            memory on purpose updates both together.
#
# A performance claim is measured by its sibling, not by a mode here:
#   scripts/pairs.sh <parent-ref> --workload W [--seed S] [--pairs N]
#                            interleaved A/B pairs of the frozen
#                            benchmark, parent commit against working
#                            tree: medians, quartiles and pairs won per
#                            gated metric (see its header).
#   scripts/pairs.sh <parent-ref> --all [--seed S] [--pairs N]
#                            the same for all five workloads in turn
#                            against one build of each side, closing
#                            with one workload x gated-metric table
#                            (better / within / unresolved / WORSE) —
#                            the claim and every "must not move" row in
#                            one invocation.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

lint() {
    run cargo build --release -p opass-lint --offline
    # SARIF artifact first (always written, even when the gate then
    # fails) so CI can archive and diff findings across commits. The
    # renderers are byte-stable, so this file only changes when findings
    # do. A deny finding makes opass-lint exit 1, which would abort under
    # `set -e` before the human-readable run — tolerate it here and let
    # the strict run below do the failing with readable output.
    echo "==> ./target/release/opass-lint --root . --format sarif > lint.sarif"
    ./target/release/opass-lint --root . --format sarif > lint.sarif || true
    # --strict: warn-level findings (panic-in-lib) also fail the gate, so
    # "clean" means zero unsuppressed findings of any severity — per-site
    # and graph rules (transitive-determinism, unused-suppression) alike.
    run ./target/release/opass-lint --root . --strict --fix-hints
}

# The benchmark package is a workspace of its own that no change may
# edit, so a public-API change that breaks it would otherwise surface
# only in the pipeline. Build it as the pipeline does and check that the
# binary still implements the declared contract (read-only on bench/).
bench_build() {
    run cargo build --release --offline --manifest-path bench/Cargo.toml --target-dir bench/target
    run bash bench/run.sh --contract BENCHMARK.json
}

if [[ "${1:-}" == "--lint" ]]; then
    lint
    echo "Lint passed (lint.sarif written)."
    exit 0
fi

if [[ "${1:-}" == "--lint-timing" ]]; then
    # Committed budget for a full-workspace lint, graph pass included.
    # Generous vs the observed time so host-load noise does not flake the
    # gate, but tight enough to catch an accidentally quadratic pass.
    LINT_BUDGET_SECONDS=20
    run cargo build --release -p opass-lint --offline
    start=$(date +%s)
    run ./target/release/opass-lint --root . --strict --threads 8
    elapsed=$(( $(date +%s) - start ))
    echo "full-workspace lint took ${elapsed}s (budget ${LINT_BUDGET_SECONDS}s)"
    if (( elapsed > LINT_BUDGET_SECONDS )); then
        echo "error: lint exceeded its wall-time budget" >&2
        exit 1
    fi
    echo "Lint timing smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
    if [[ ! -f BENCH_sim.json ]]; then
        echo "error: BENCH_sim.json baseline missing; run" >&2
        echo "  cargo run --release -p opass-bench --bin bench_sim --offline" >&2
        exit 1
    fi
    run cargo build --release -p opass-bench --bin bench_sim --offline
    run ./target/release/bench_sim --smoke --out - \
        --check-against BENCH_sim.json --max-regression 0.30
    echo "Bench smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--serve-smoke" ]]; then
    if [[ ! -f BENCH_serve.json ]]; then
        echo "error: BENCH_serve.json baseline missing; run" >&2
        echo "  cargo run --release -p opass-bench --bin bench_serve --offline" >&2
        exit 1
    fi
    run cargo build --release -p opass-bench --bin bench_serve --offline
    run ./target/release/bench_serve --smoke --out - \
        --check-against BENCH_serve.json --max-regression 0.30
    echo "Serve smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--replan-smoke" ]]; then
    if [[ ! -f BENCH_replan.json ]]; then
        echo "error: BENCH_replan.json baseline missing; run" >&2
        echo "  cargo run --release -p opass-bench --bin bench_replan --offline" >&2
        exit 1
    fi
    run cargo build --release -p opass-bench --bin bench_replan --offline
    # Wider margin than the other smokes: the repair arm's absolute wall
    # time is milliseconds and swings with host load; the binary's own
    # repair-vs-scratch and arena-vs-pre-arena speedup assertions are the
    # load-independent guarantees.
    run ./target/release/bench_replan --smoke --out - \
        --check-against BENCH_replan.json --max-regression 0.50
    echo "Replan smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--place-smoke" ]]; then
    if [[ ! -f BENCH_place.json ]]; then
        echo "error: BENCH_place.json baseline missing; run" >&2
        echo "  cargo run --release -p opass-bench --bin bench_place --offline" >&2
        exit 1
    fi
    run cargo build --release -p opass-bench --bin bench_place --offline
    # Tight margin: the gated metric is the simulated-I/O p99 speedup,
    # which is deterministic for fixed seeds — any drift is a real
    # behavior change in the placement loop, not host-load noise.
    run ./target/release/bench_place --smoke --out - \
        --check-against BENCH_place.json --max-regression 0.10
    echo "Place smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--trace-smoke" ]]; then
    if [[ ! -f BENCH_trace.json ]]; then
        echo "error: BENCH_trace.json baseline missing; run" >&2
        echo "  cargo run --release -p opass-bench --bin bench_trace --offline" >&2
        exit 1
    fi
    run cargo build --release -p opass-bench --bin bench_trace --offline
    # Wide margin: throughput swings with host load, while the load-
    # independent guarantees (parse bit-identity across thread counts,
    # replay fingerprint reproducibility) are asserted inside the binary
    # and never waived.
    run ./target/release/bench_trace --smoke --out - \
        --check-against BENCH_trace.json --max-regression 0.50
    echo "Trace smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--bench-run" ]]; then
    # peak_rss_mib ceilings, MiB: the seed-1 medians of EXPERIMENTS.md
    # "World memory" (ISSUE 25: 21.12, 63.37, 73.43, 125.89, 18.43)
    # plus 3 %. Updated together with it.
    declare -A RSS_CEILING_MIB=(
        [plan_mix]=21.75
        [serve_hot]=65.27
        [serve_churn]=75.64
        [trace_replay]=129.67
        [sim_sweep]=18.98
    )
    bench_build
    run bash bench/run.sh --self-test
    for workload in plan_mix serve_hot serve_churn trace_replay sim_sweep; do
        echo "==> bash bench/run.sh --workload $workload --seed 1 --seconds 17 --trace 0"
        result="$(bash bench/run.sh --workload "$workload" --seed 1 --seconds 17 --trace 0 | tail -n 1)"
        echo "$result"
        if [[ "$result" != *'"correct":true'* || "$result" != *'"failed":0,'* ]]; then
            echo "error: $workload did not finish correct with 0 failed" >&2
            exit 1
        fi
        rss="$(python3 -c 'import json, sys
print(json.loads(sys.argv[1])["metrics"]["peak_rss_mib"]["value"])' "$result")"
        ceiling="${RSS_CEILING_MIB[$workload]}"
        echo "$workload: peak_rss_mib $rss (ceiling $ceiling)"
        if ! awk -v rss="$rss" -v ceiling="$ceiling" 'BEGIN { exit !(rss <= ceiling) }'; then
            echo "error: $workload peak_rss_mib $rss MiB exceeds its ceiling of $ceiling MiB" >&2
            exit 1
        fi
    done
    echo "Bench run passed."
    exit 0
fi

run cargo fmt --all -- --check
lint
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo build --workspace --release --offline
run cargo build --workspace --all-targets --offline
run cargo test --workspace --quiet --offline
# The retired thread-per-connection frontend only builds behind its
# feature gate; keep it honest (it A/B-checks itself against the reactor).
run cargo test -p opass-serve --features blocking-server --quiet --offline
bench_build

echo "All checks passed."
