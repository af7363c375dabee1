//! Finding renderers: human text, stable JSON, and SARIF 2.1.0.
//!
//! All three formats are byte-stable for a given finding set:
//! `opass_json::Json::object` preserves insertion order, findings arrive
//! pre-sorted from the driver, and nothing here consults the clock or the
//! environment. That is what lets CI archive `lint.sarif` / `lint.json`
//! artifacts and diff them across commits.

use crate::config::Severity;
use crate::rules::Finding;
use opass_json::Json;

/// What the human renderer should include beyond the findings themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct HumanOpts {
    /// Print the per-rule `fix:` hint under each finding.
    pub fix_hints: bool,
    /// Also list suppressed findings with their reasons.
    pub show_suppressed: bool,
}

/// One line per finding plus a summary line; the original terminal format.
pub fn render_human(
    opts: HumanOpts,
    active: &[Finding],
    suppressed: &[Finding],
    denies: usize,
    warns: usize,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for f in active {
        let _ = writeln!(
            out,
            "{}:{}: {} [{}]: {}",
            f.file, f.line, f.rule, f.severity, f.message
        );
        if opts.fix_hints {
            let _ = writeln!(out, "    fix: {}", f.hint);
        }
    }
    if opts.show_suppressed {
        for f in suppressed {
            let _ = writeln!(
                out,
                "{}:{}: {} [suppressed]: {}",
                f.file,
                f.line,
                f.rule,
                f.suppressed.as_deref().unwrap_or("")
            );
        }
    }
    let _ = writeln!(
        out,
        "opass-lint: {denies} deny, {warns} warn, {} suppressed",
        suppressed.len()
    );
    out
}

/// The stable machine format: findings + suppressed + summary counts.
pub fn render_json(
    active: &[Finding],
    suppressed: &[Finding],
    denies: usize,
    warns: usize,
) -> String {
    let out = Json::object([
        (
            "findings".into(),
            Json::array(active.iter().map(finding_json)),
        ),
        (
            "suppressed".into(),
            Json::array(suppressed.iter().map(finding_json)),
        ),
        (
            "summary".into(),
            Json::object([
                ("deny".into(), Json::from(denies)),
                ("warn".into(), Json::from(warns)),
                ("suppressed".into(), Json::from(suppressed.len())),
            ]),
        ),
    ]);
    let mut s = out.to_pretty();
    s.push('\n');
    s
}

fn finding_json(f: &Finding) -> Json {
    Json::object([
        ("file".into(), Json::from(f.file.as_str())),
        ("line".into(), Json::from(f.line as u64)),
        ("rule".into(), Json::from(f.rule)),
        ("severity".into(), Json::from(f.severity.to_string())),
        ("message".into(), Json::from(f.message.as_str())),
        ("hint".into(), Json::from(f.hint)),
        (
            "suppressed".into(),
            match &f.suppressed {
                Some(reason) => Json::from(reason.as_str()),
                None => Json::Null,
            },
        ),
    ])
}

/// SARIF 2.1.0 (the static-analysis interchange format CI dashboards
/// ingest). Active findings become `results`; suppressed findings are
/// included too, carrying an `inSource` suppression with the directive's
/// reason as justification, so archived runs show *what* was waived.
pub fn render_sarif(active: &[Finding], suppressed: &[Finding]) -> String {
    let mut rule_ids: Vec<&'static str> = active.iter().chain(suppressed).map(|f| f.rule).collect();
    rule_ids.sort_unstable();
    rule_ids.dedup();
    let rules = Json::array(rule_ids.iter().map(|&id| {
        Json::object([
            ("id".into(), Json::from(id)),
            (
                "shortDescription".into(),
                Json::object([("text".into(), Json::from(rule_blurb(id)))]),
            ),
        ])
    }));
    let results = Json::array(active.iter().chain(suppressed).map(|f| {
        let mut fields = vec![
            ("ruleId".into(), Json::from(f.rule)),
            (
                "level".into(),
                Json::from(match f.severity {
                    Severity::Deny => "error",
                    Severity::Warn => "warning",
                    Severity::Allow => "note",
                }),
            ),
            (
                "message".into(),
                Json::object([("text".into(), Json::from(f.message.as_str()))]),
            ),
            (
                "locations".into(),
                Json::array([Json::object([(
                    "physicalLocation".into(),
                    Json::object([
                        (
                            "artifactLocation".into(),
                            Json::object([("uri".into(), Json::from(f.file.as_str()))]),
                        ),
                        (
                            "region".into(),
                            Json::object([("startLine".into(), Json::from(f.line as u64))]),
                        ),
                    ]),
                )])]),
            ),
        ];
        if let Some(reason) = &f.suppressed {
            fields.push((
                "suppressions".into(),
                Json::array([Json::object([
                    ("kind".into(), Json::from("inSource")),
                    ("justification".into(), Json::from(reason.as_str())),
                ])]),
            ));
        }
        Json::object(fields)
    }));
    let out = Json::object([
        (
            "$schema".into(),
            Json::from("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version".into(), Json::from("2.1.0")),
        (
            "runs".into(),
            Json::array([Json::object([
                (
                    "tool".into(),
                    Json::object([(
                        "driver".into(),
                        Json::object([
                            ("name".into(), Json::from("opass-lint")),
                            ("version".into(), Json::from(env!("CARGO_PKG_VERSION"))),
                            ("rules".into(), rules),
                        ]),
                    )]),
                ),
                ("results".into(), results),
            ])]),
        ),
    ]);
    let mut s = out.to_pretty();
    s.push('\n');
    s
}

/// One-line rule summaries for SARIF rule metadata.
fn rule_blurb(id: &str) -> &'static str {
    match id {
        "unordered-iteration" => "HashMap/HashSet iteration order leaks into deterministic output",
        "unordered-parallel-merge" => {
            "parallel results merged in completion order, not spawn order"
        }
        "no-wallclock" => "wall-clock reads make replay non-reproducible",
        "no-ambient-rng" => "ambient RNG (thread_rng/OsRng) is unseeded and unreplayable",
        "float-accumulation-order" => "float reduction order changes the accumulated bits",
        "panic-in-lib" => "library code panics instead of returning an error",
        "no-unsafe" => "unsafe code outside the audited exceptions",
        "transitive-determinism" => {
            "a public function of a deterministic crate can reach a determinism sink through calls"
        }
        "unused-pub" => "a pub item of a library crate is named by no other file",
        "unused-suppression" => "a lint:allow directive no longer suppresses anything",
        _ => "opass-lint finding",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            file: "crates/dfs/src/x.rs".into(),
            line: 3,
            rule: "no-wallclock",
            severity: Severity::Deny,
            message: "`Instant::now` read".into(),
            hint: "thread simulated time through",
            suppressed: None,
        }]
    }

    #[test]
    fn sarif_has_schema_results_and_rule_metadata() {
        let s = render_sarif(&sample(), &[]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"no-wallclock\""));
        assert!(s.contains("\"startLine\": 3"));
        assert!(s.contains("\"level\": \"error\""));
        assert!(
            s.contains("replay non-reproducible"),
            "rule metadata present"
        );
    }

    #[test]
    fn sarif_suppressed_findings_carry_justification() {
        let mut f = sample();
        f[0].suppressed = Some("CLI boundary".into());
        let s = render_sarif(&[], &f);
        assert!(s.contains("\"kind\": \"inSource\""));
        assert!(s.contains("\"justification\": \"CLI boundary\""));
    }

    #[test]
    fn renderers_are_pure_functions_of_findings() {
        let f = sample();
        assert_eq!(render_sarif(&f, &[]), render_sarif(&f, &[]));
        assert_eq!(render_json(&f, &[], 1, 0), render_json(&f, &[], 1, 0));
    }
}
