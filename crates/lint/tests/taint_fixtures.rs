//! Fixture *trees* for the workspace-level graph rules. Unlike the
//! per-site fixtures (one file, one rule), each case here is a miniature
//! multi-crate workspace under `tests/fixtures/taint/<tree>/` linted as a
//! whole via [`opass_lint::lint_sources`] — the only way to exercise
//! `transitive-determinism` (cross-crate call chains), `unused-pub`
//! (references from other files) and `unused-suppression` (directive
//! bookkeeping across the full pass).

use opass_lint::config::{Config, Severity, GRAPH_RULE_NAMES};
use opass_lint::lint_sources;
use opass_lint::rules::Finding;
use std::path::Path;

/// Trees that exist, keyed by the rule each one exercises — the
/// counterpart of `rules_fixtures.rs`'s CASES table for the graph rules.
const TREES: [(&str, &str); 9] = [
    ("transitive-determinism", "transitive_pos"),
    ("transitive-determinism", "transitive_neg"),
    ("transitive-determinism", "transitive_allow"),
    ("unused-suppression", "unused_pos"),
    ("unused-suppression", "unused_neg"),
    ("unused-suppression", "unused_allow"),
    ("unused-pub", "unused_pub_pos"),
    ("unused-pub", "unused_pub_neg"),
    ("unused-pub", "unused_pub_allow"),
];

fn lint_tree(tree: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/taint")
        .join(tree);
    let mut sources = Vec::new();
    collect(&root, &root, &mut sources);
    assert!(!sources.is_empty(), "fixture tree {tree} is empty");
    // The other rules' trees declare `pub fn` entries that no other file
    // names on purpose (they are the transitive pass's subjects), so
    // `unused-pub` runs only on its own trees.
    let mut cfg = Config::default();
    if !tree.starts_with("unused_pub") {
        cfg.rules
            .get_mut("unused-pub")
            .expect("shipped rule")
            .severity = Severity::Allow;
    }
    // No DepMap: fixture trees carry no Cargo.toml, so cross-crate edges
    // are permissive — exactly what the synthetic workspaces need.
    lint_sources(&sources, &cfg, None)
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("fixture dir") {
        let path = entry.expect("fixture entry").path();
        if path.is_dir() {
            collect(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked under root")
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&path).expect("read fixture");
            out.push((rel, src));
        }
    }
}

fn active(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.suppressed.is_none()).collect()
}

#[test]
fn every_graph_rule_has_pos_neg_and_allow_trees() {
    for rule in GRAPH_RULE_NAMES {
        for suffix in ["pos", "neg", "allow"] {
            assert!(
                TREES.iter().any(|&(r, t)| r == rule && t.ends_with(suffix)),
                "rule {rule} has no {suffix} fixture tree"
            );
        }
    }
}

#[test]
fn cross_crate_chain_is_reported_with_full_path() {
    let findings = lint_tree("transitive_pos");
    let active = active(&findings);
    assert_eq!(
        active.len(),
        2,
        "exactly the two tainted entries fire: {active:#?}"
    );
    assert!(active.iter().all(|f| f.rule == "transitive-determinism"));
    assert!(active.iter().all(|f| f.file == "crates/core/src/plan.rs"));

    let wallclock = active
        .iter()
        .find(|f| f.message.contains("plan_all"))
        .expect("plan_all entry reported");
    assert!(
        wallclock.message.contains(
            "can reach a wall-clock read: tainted via core::plan::plan_all \
             -> cli::stamp::record_all -> cli::stamp::now_tag -> Instant::now"
        ),
        "full two-hop chain in the message, got: {}",
        wallclock.message
    );

    let unordered = active
        .iter()
        .find(|f| f.message.contains("summarize"))
        .expect("summarize entry reported");
    assert!(
        unordered.message.contains(
            "can reach unordered-container iteration: tainted via \
             core::plan::summarize -> cli::stamp::bucket_count -> HashMap"
        ),
        "chain to the container sink, got: {}",
        unordered.message
    );
}

#[test]
fn deterministic_helper_tree_stays_silent() {
    let findings = lint_tree("transitive_neg");
    assert!(findings.is_empty(), "expected no findings: {findings:#?}");
}

#[test]
fn entry_site_allow_suppresses_with_reason() {
    let findings = lint_tree("transitive_allow");
    assert!(
        active(&findings).is_empty(),
        "waived entries must not fire: {findings:#?}"
    );
    let suppressed: Vec<&Finding> = findings.iter().filter(|f| f.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 2, "{suppressed:#?}");
    for f in suppressed {
        assert_eq!(f.rule, "transitive-determinism");
        assert!(!f.suppressed.as_deref().unwrap_or("").is_empty());
    }
}

#[test]
fn stale_misspelled_and_reasonless_directives_are_reported() {
    let findings = lint_tree("unused_pos");
    let active = active(&findings);
    assert_eq!(active.len(), 3, "{active:#?}");
    assert!(active.iter().all(|f| f.rule == "unused-suppression"));
    assert!(
        active
            .iter()
            .any(|f| f.message.contains("no longer suppresses anything")),
        "stale variant reported: {active:#?}"
    );
    assert!(
        active
            .iter()
            .any(|f| f.message.contains("unknown rule(s) no-such-rule")),
        "misspelled variant reported: {active:#?}"
    );
    assert!(
        active
            .iter()
            .any(|f| f.message.contains("lacks the mandatory `: reason`")),
        "reasonless variant reported: {active:#?}"
    );
}

#[test]
fn live_directive_is_not_reported() {
    let findings = lint_tree("unused_neg");
    assert!(
        active(&findings).is_empty(),
        "a directive that suppresses a live finding is used: {findings:#?}"
    );
    // The finding it suppresses is still visible as suppressed.
    assert!(findings
        .iter()
        .any(|f| f.rule == "no-wallclock" && f.suppressed.is_some()));
}

#[test]
fn excused_stale_directive_is_suppressed_not_active() {
    let findings = lint_tree("unused_allow");
    assert!(active(&findings).is_empty(), "{findings:#?}");
    let excused: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "unused-suppression")
        .collect();
    assert_eq!(excused.len(), 1, "{excused:#?}");
    assert!(excused[0]
        .suppressed
        .as_deref()
        .unwrap_or("")
        .contains("documentation"));
}

#[test]
fn pub_items_no_other_file_names_are_reported() {
    let findings = lint_tree("unused_pub_pos");
    let active = active(&findings);
    assert_eq!(active.len(), 3, "{active:#?}");
    assert!(active
        .iter()
        .all(|f| f.rule == "unused-pub" && f.file == "crates/core/src/lib.rs"));
    for item in [
        "`pub const LIMIT`",
        "`pub fn orphan`",
        "`pub fn mentioned_in_prose`",
    ] {
        assert!(
            active.iter().any(|f| f.message.contains(item)),
            "{item} reported (comments and string literals are not references): {active:#?}"
        );
    }
}

#[test]
fn pub_items_named_elsewhere_or_not_candidates_stay_silent() {
    let findings = lint_tree("unused_pub_neg");
    assert!(findings.is_empty(), "expected no findings: {findings:#?}");
}

#[test]
fn pub_item_waiver_suppresses_and_a_stale_one_is_reported() {
    let findings = lint_tree("unused_pub_allow");
    let suppressed: Vec<&Finding> = findings.iter().filter(|f| f.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 1, "{suppressed:#?}");
    assert_eq!(suppressed[0].rule, "unused-pub");
    assert!(suppressed[0].message.contains("`pub fn waived`"));
    let active = active(&findings);
    assert_eq!(active.len(), 1, "{active:#?}");
    assert_eq!(active[0].rule, "unused-suppression");
    assert_eq!(
        active[0].line, 6,
        "the stale waiver above `named_elsewhere`"
    );
}
