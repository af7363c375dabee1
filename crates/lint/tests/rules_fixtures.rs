//! Table-driven fixture tests: every shipped rule has a positive, a
//! negative, and a suppressed (`lint:allow`) fixture under
//! `tests/fixtures/`. Fixtures are linted under a *pretend* workspace path
//! so each one exercises exactly the crate context its rule targets; the
//! files themselves are excluded from workspace linting by `lint.toml` and
//! are never compiled.

use opass_lint::config::{Config, GRAPH_RULE_NAMES, RULE_NAMES};
use opass_lint::rules::{lint_source, Finding};
use std::path::Path;

struct Case {
    rule: &'static str,
    /// Pretend workspace-relative path the fixture is linted under.
    context: &'static str,
    /// (fixture file, expected active findings, expected suppressed).
    pos: (&'static str, usize),
    neg: &'static str,
    allow: (&'static str, usize),
}

const CASES: [Case; 10] = [
    Case {
        rule: "unordered-iteration",
        context: "crates/dfs/src/fixture.rs",
        pos: ("unordered_iteration_pos.rs", 3),
        neg: "unordered_iteration_neg.rs",
        allow: ("unordered_iteration_allow.rs", 2),
    },
    Case {
        // Same rule, incremental-matcher shape: the inverse owned index
        // must stay ordered because its enumeration order is the repair
        // search order (DESIGN.md §11).
        rule: "unordered-iteration",
        context: "crates/matching/src/incremental_fixture.rs",
        pos: ("incremental_owned_index_pos.rs", 2),
        neg: "incremental_owned_index_neg.rs",
        allow: ("incremental_owned_index_allow.rs", 2),
    },
    Case {
        // Same rule, placement-engine shape: donor choice ties on stored
        // bytes must resolve by node id, not by hash order (DESIGN.md §12).
        rule: "unordered-iteration",
        context: "crates/matching/src/placement_fixture.rs",
        pos: ("placement_tiebreak_pos.rs", 2),
        neg: "placement_tiebreak_neg.rs",
        allow: ("placement_tiebreak_allow.rs", 2),
    },
    Case {
        // Parallel repair merges component results by joining handles in
        // spawn order; channels and lock accumulators merge in completion
        // order instead, which breaks bit-identity (DESIGN.md §13).
        rule: "unordered-parallel-merge",
        context: "crates/matching/src/fixture.rs",
        pos: ("unordered_parallel_merge_pos.rs", 2),
        neg: "unordered_parallel_merge_neg.rs",
        allow: ("unordered_parallel_merge_allow.rs", 1),
    },
    Case {
        // Same rule in the trace crate: its generator pipeline and split
        // text writer promise output byte-identical to one loop, so
        // worker results must be joined in spawn order — channel
        // collects and lock-wrapped accumulators merge in completion
        // order (§14).
        rule: "unordered-parallel-merge",
        context: "crates/trace/src/fixture.rs",
        pos: ("trace_parallel_merge_pos.rs", 2),
        neg: "trace_parallel_merge_neg.rs",
        allow: ("trace_parallel_merge_allow.rs", 1),
    },
    Case {
        rule: "no-wallclock",
        context: "crates/core/src/fixture.rs",
        pos: ("no_wallclock_pos.rs", 3),
        neg: "no_wallclock_neg.rs",
        allow: ("no_wallclock_allow.rs", 1),
    },
    Case {
        rule: "no-ambient-rng",
        context: "crates/runtime/src/fixture.rs",
        pos: ("no_ambient_rng_pos.rs", 2),
        neg: "no_ambient_rng_neg.rs",
        allow: ("no_ambient_rng_allow.rs", 1),
    },
    Case {
        rule: "float-accumulation-order",
        context: "crates/runtime/src/fixture.rs",
        pos: ("float_accumulation_pos.rs", 2),
        neg: "float_accumulation_neg.rs",
        allow: ("float_accumulation_allow.rs", 1),
    },
    Case {
        rule: "panic-in-lib",
        context: "crates/matching/src/fixture.rs",
        pos: ("panic_in_lib_pos.rs", 2),
        neg: "panic_in_lib_neg.rs",
        allow: ("panic_in_lib_allow.rs", 1),
    },
    Case {
        // Tests are covered too: the counting allocator in
        // `crates/tests/tests/alloc_budget.rs` is exempt by path in
        // `lint.toml`, not by being a test.
        rule: "no-unsafe",
        context: "crates/tests/tests/fixture.rs",
        pos: ("no_unsafe_pos.rs", 3),
        neg: "no_unsafe_neg.rs",
        allow: ("no_unsafe_allow.rs", 1),
    },
];

fn lint_fixture(name: &str, context: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    lint_source(context, &src, &Config::default())
}

#[test]
fn every_shipped_rule_has_a_case() {
    for rule in RULE_NAMES {
        if GRAPH_RULE_NAMES.contains(&rule) {
            // Workspace-level rules need multi-file trees; their fixture
            // coverage is asserted in `taint_fixtures.rs`.
            continue;
        }
        assert!(
            CASES.iter().any(|c| c.rule == rule),
            "rule {rule} has no fixture case"
        );
    }
}

#[test]
fn positive_fixtures_fire() {
    for c in &CASES {
        let findings = lint_fixture(c.pos.0, c.context);
        let hits: Vec<&Finding> = findings.iter().filter(|f| f.rule == c.rule).collect();
        assert_eq!(
            hits.len(),
            c.pos.1,
            "{}: expected {} findings of {}, got {findings:#?}",
            c.pos.0,
            c.pos.1,
            c.rule
        );
        assert!(
            hits.iter().all(|f| f.suppressed.is_none()),
            "{}: findings must not be suppressed",
            c.pos.0
        );
        // A fixture exercises exactly its rule — no cross-rule noise.
        assert!(
            findings.iter().all(|f| f.rule == c.rule),
            "{}: unexpected extra rules in {findings:#?}",
            c.pos.0
        );
    }
}

#[test]
fn negative_fixtures_stay_silent() {
    for c in &CASES {
        let findings = lint_fixture(c.neg, c.context);
        assert!(
            findings.is_empty(),
            "{}: expected no findings, got {findings:#?}",
            c.neg
        );
    }
}

#[test]
fn allow_fixtures_are_fully_suppressed_with_reasons() {
    for c in &CASES {
        let findings = lint_fixture(c.allow.0, c.context);
        let (suppressed, active): (Vec<&Finding>, Vec<&Finding>) =
            findings.iter().partition(|f| f.suppressed.is_some());
        assert!(
            active.is_empty(),
            "{}: unsuppressed findings remain: {active:#?}",
            c.allow.0
        );
        assert_eq!(
            suppressed.len(),
            c.allow.1,
            "{}: expected {} suppressed findings, got {suppressed:#?}",
            c.allow.0,
            c.allow.1
        );
        for f in suppressed {
            assert_eq!(f.rule, c.rule);
            assert!(
                !f.suppressed.as_deref().unwrap_or("").is_empty(),
                "{}: suppression must carry a reason",
                c.allow.0
            );
        }
    }
}

#[test]
fn severities_come_from_config() {
    use opass_lint::config::Severity;
    for c in &CASES {
        let findings = lint_fixture(c.pos.0, c.context);
        let expected = Config::default().rule(c.rule).severity;
        assert!(
            findings
                .iter()
                .filter(|f| f.rule == c.rule)
                .all(|f| f.severity == expected),
            "{}: severity mismatch",
            c.pos.0
        );
        assert!(expected >= Severity::Warn, "{}: rule disabled?", c.rule);
    }
}
