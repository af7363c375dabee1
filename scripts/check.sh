#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, determinism linter, lints, build, tests.
# Offline-friendly: everything runs with --offline against the vendored
# dependencies, so it works without network access.
#
# Modes:
#   check.sh                 full gate (fmt, opass-lint, clippy, build, tests,
#                            rustdoc with warnings denied, then the frozen
#                            benchmark package bench/ built against the
#                            workspace's public API)
#   check.sh --lint          determinism & invariant linter only: runs
#                            opass-lint over the workspace (config in
#                            lint.toml) and fails on any unsuppressed
#                            finding — including deny findings from the
#                            transitive call-graph pass — printing fix
#                            hints and archiving lint.sarif for CI diffing
#   check.sh --lint-timing   lint-throughput smoke: full-workspace lint
#                            must finish under the committed wall-time
#                            budget below
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
#                            workload's setup_s (a report, no ceiling)
#                            and its peak_rss_mib, and fails when the
#                            latter exceeds the workload's ceiling in
#                            RSS_CEILING_MIB below, so the memory savings
#                            EXPERIMENTS.md records cannot be undone
#                            silently. The ceilings are the seed-1
#                            readings recorded in EXPERIMENTS.md plus
#                            3 %; a PR that moves memory on purpose
#                            updates both together.
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
    run ./target/release/opass-lint --root . --strict
    elapsed=$(( $(date +%s) - start ))
    echo "full-workspace lint took ${elapsed}s (budget ${LINT_BUDGET_SECONDS}s)"
    if (( elapsed > LINT_BUDGET_SECONDS )); then
        echo "error: lint exceeded its wall-time budget" >&2
        exit 1
    fi
    echo "Lint timing smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--bench-run" ]]; then
    # peak_rss_mib ceilings, MiB: the seed-1 medians of EXPERIMENTS.md
    # "Sixteen-byte replica sets" (serve_hot 29.08, serve_churn 34.78),
    # "Trace records in 24 bytes" (trace_replay 110.51) and "Planning
    # state held once" (plan_mix 11.03, sim_sweep 11.83) plus 3 %.
    # Updated together with them.
    declare -A RSS_CEILING_MIB=(
        [plan_mix]=11.36
        [serve_hot]=29.95
        [serve_churn]=35.82
        [trace_replay]=113.83
        [sim_sweep]=12.19
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
        read -r rss setup <<<"$(python3 -c 'import json, sys
metrics = json.loads(sys.argv[1])["metrics"]
print(metrics["peak_rss_mib"]["value"], metrics["setup_s"]["value"])' "$result")"
        ceiling="${RSS_CEILING_MIB[$workload]}"
        # setup_s is reported, not gated: on this benchmark its bounds
        # cannot yet resolve a workload's own parent (ROADMAP 4(h)).
        echo "$workload: peak_rss_mib $rss (ceiling $ceiling), setup_s $setup"
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
# The tests include the committed figure record: FIGURES.txt is
# `opass figures all` for its default seed (0x0A55), byte for byte
# (crates/cli/tests/figures.rs). After a change that moves a figure on
# purpose, re-record it with
#   ./target/release/opass figures --out target/figures all && cp target/figures/SUMMARY.txt FIGURES.txt
run cargo test --workspace --quiet --offline
# Intra-doc links are checked like code: a renamed or removed item must
# not leave a dangling link behind.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
bench_build

echo "All checks passed."
