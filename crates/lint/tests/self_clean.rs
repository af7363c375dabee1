//! Meta-tests: the linter holds the workspace — and itself — to its own
//! rules. `workspace_is_clean` is the same invariant `scripts/check.sh
//! --lint` enforces, so reverting any satellite fix (say, reintroducing a
//! `HashMap` in `dfs::reader`) fails `cargo test` too, not just the shell
//! gate.

use opass_lint::report::{self, HumanOpts};
use opass_lint::{lint_workspace, load_config, rules::Finding};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn lint_all() -> Vec<Finding> {
    let root = workspace_root();
    let cfg = load_config(&root).expect("committed lint.toml parses");
    lint_workspace(&root, &cfg).expect("workspace walk succeeds")
}

#[test]
fn workspace_is_clean() {
    let active: Vec<Finding> = lint_all()
        .into_iter()
        .filter(|f| f.suppressed.is_none())
        .collect();
    assert!(
        active.is_empty(),
        "workspace has unsuppressed lint findings:\n{}",
        active
            .iter()
            .map(|f| format!("  {}:{}: {}: {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn linter_own_source_is_clean() {
    let findings: Vec<Finding> = lint_all()
        .into_iter()
        .filter(|f| f.file.starts_with("crates/lint/"))
        .collect();
    assert!(
        findings.is_empty(),
        "opass-lint does not satisfy its own rules: {findings:#?}"
    );
}

/// Renders one full workspace lint in all three formats. Byte-equality
/// of the returned strings is the driver's determinism contract.
fn render_all() -> (String, String, String) {
    let findings = lint_all();
    let (suppressed, active): (Vec<Finding>, Vec<Finding>) =
        findings.into_iter().partition(|f| f.suppressed.is_some());
    let denies = active
        .iter()
        .filter(|f| f.severity == opass_lint::config::Severity::Deny)
        .count();
    let warns = active.len() - denies;
    let opts = HumanOpts {
        fix_hints: true,
        show_suppressed: true,
    };
    (
        report::render_human(opts, &active, &suppressed, denies, warns),
        report::render_json(&active, &suppressed, denies, warns),
        report::render_sarif(&active, &suppressed),
    )
}

#[test]
fn output_is_byte_identical_across_repeated_runs() {
    let (first, second) = (render_all(), render_all());
    assert_eq!(first.0, second.0, "human output differs between runs");
    assert_eq!(first.1, second.1, "json output differs between runs");
    assert_eq!(first.2, second.2, "sarif output differs between runs");
}

#[test]
fn suppressions_carry_reasons() {
    // Every suppressed finding in the workspace must have a non-empty
    // reason — the directive grammar enforces it, this pins it.
    for f in lint_all() {
        if let Some(reason) = &f.suppressed {
            assert!(
                !reason.is_empty(),
                "{}:{}: empty suppression reason",
                f.file,
                f.line
            );
        }
    }
}
