//! Linter configuration: built-in defaults plus a committed `lint.toml`.
//!
//! The workspace builds offline without a TOML crate, so this module parses
//! the small TOML subset the config actually uses: `[section]` headers,
//! `key = "string"`, `key = true/false`, and `key = ["a", "b"]` arrays
//! (single-line), with `#` comments. Unknown sections, rules, or keys are
//! hard errors — a typo in `lint.toml` must not silently disable a rule.

use std::collections::BTreeMap;
use std::fmt;

/// Diagnostic severity, ordered weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled.
    Allow,
    /// Reported, but does not fail the run (unless `--strict`).
    Warn,
    /// Reported and fails the run.
    Deny,
}

impl Severity {
    fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Per-rule settings.
#[derive(Debug, Clone)]
pub struct RuleCfg {
    /// What a finding of this rule counts as.
    pub severity: Severity,
    /// Whether the rule also fires inside `#[cfg(test)]` / `#[test]` code
    /// and files under `tests/` / `benches/` directories.
    pub include_tests: bool,
    /// Crate names (directory names under `crates/`) the rule skips.
    pub exempt_crates: Vec<String>,
    /// Workspace-relative file paths the rule skips: audited single-file
    /// exceptions, recorded in `lint.toml` where a reviewer sees them.
    /// Honoured by the per-site rules; the graph rules exempt by crate.
    pub exempt_files: Vec<String>,
}

/// Full linter configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace-relative path prefixes never linted.
    pub exclude: Vec<String>,
    /// Crates whose outputs must be bit-reproducible: `unordered-iteration`
    /// applies only here.
    pub deterministic_crates: Vec<String>,
    /// Crates considered libraries for `panic-in-lib` and `unused-pub`.
    pub library_crates: Vec<String>,
    /// `.expect("…")` is accepted as a documented invariant by
    /// `panic-in-lib` when true.
    pub allow_expect: bool,
    /// Per-rule settings, keyed by rule name.
    pub rules: BTreeMap<String, RuleCfg>,
}

/// The names of every shipped rule, in reporting order.
pub const RULE_NAMES: [&str; 10] = [
    "unordered-iteration",
    "unordered-parallel-merge",
    "no-wallclock",
    "no-ambient-rng",
    "float-accumulation-order",
    "panic-in-lib",
    "no-unsafe",
    "transitive-determinism",
    "unused-pub",
    "unused-suppression",
];

/// The workspace-level rules: they need the whole call graph / directive
/// set, not a single file, so the per-file engine never runs them and
/// fixture suites key off this list.
pub const GRAPH_RULE_NAMES: [&str; 3] =
    ["transitive-determinism", "unused-pub", "unused-suppression"];

impl Default for Config {
    fn default() -> Self {
        let mut rules = BTreeMap::new();
        let deny = |tests: bool, exempt: &[&str]| RuleCfg {
            severity: Severity::Deny,
            include_tests: tests,
            exempt_crates: exempt.iter().map(|s| s.to_string()).collect(),
            exempt_files: Vec::new(),
        };
        // Tests participate in the bit-exactness assertions, so the
        // ordering and RNG rules apply inside them too by default.
        rules.insert("unordered-iteration".into(), deny(true, &[]));
        rules.insert("unordered-parallel-merge".into(), deny(true, &[]));
        rules.insert("no-wallclock".into(), deny(true, &["cli", "bench", "lint"]));
        rules.insert("no-ambient-rng".into(), deny(true, &[]));
        rules.insert("float-accumulation-order".into(), deny(true, &[]));
        // `unsafe_code = "deny"` in the workspace manifest can be lifted
        // by any file's `#![allow]`; this rule makes lifting it a finding.
        rules.insert("no-unsafe".into(), deny(true, &[]));
        // Test functions call tainted helpers on purpose (that is what the
        // fixtures and property tests do), so the transitive pass only
        // guards non-test entry points by default.
        rules.insert("transitive-determinism".into(), deny(false, &[]));
        // Public surface is what callers use; a test-only `pub fn` is the
        // test module's business.
        rules.insert("unused-pub".into(), deny(false, &[]));
        rules.insert("unused-suppression".into(), deny(true, &[]));
        rules.insert(
            "panic-in-lib".into(),
            RuleCfg {
                severity: Severity::Warn,
                include_tests: false,
                exempt_crates: Vec::new(),
                exempt_files: Vec::new(),
            },
        );
        Config {
            exclude: vec!["target".into(), "vendor".into()],
            deterministic_crates: [
                "simio",
                "dfs",
                "matching",
                "analysis",
                "workloads",
                "core",
                "trace",
            ]
            .map(String::from)
            .to_vec(),
            library_crates: [
                "core",
                "matching",
                "dfs",
                "simio",
                "analysis",
                "runtime",
                "workloads",
                "json",
                "serve",
                "trace",
            ]
            .map(String::from)
            .to_vec(),
            allow_expect: true,
            rules,
        }
    }
}

/// A `lint.toml` problem, with the offending line when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Explanation.
    pub message: String,
    /// 1-based line in `lint.toml`, 0 when not line-specific.
    pub line: u32,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

#[derive(Debug, PartialEq)]
enum Value {
    Str(String),
    Bool(bool),
    Array(Vec<String>),
}

impl Config {
    /// Parses `lint.toml` content, starting from the built-in defaults.
    pub fn from_toml(src: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let err = |message: String| ConfigError {
                message,
                line: lineno,
            };
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                let known = section == "workspace"
                    || section
                        .strip_prefix("rules.")
                        .is_some_and(|r| RULE_NAMES.contains(&r));
                if !known {
                    return Err(err(format!(
                        "unknown section [{section}] (rules are: {})",
                        RULE_NAMES.join(", ")
                    )));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key = value`, got `{line}`")))?;
            let key = key.trim();
            let value = parse_value(value.trim()).map_err(&err)?;
            match section.strip_prefix("rules.") {
                Some(rule) => {
                    let rc = cfg.rules.get_mut(rule).expect("section already validated");
                    apply_rule_key(rc, key, value).map_err(&err)?;
                }
                None if section == "workspace" => {
                    apply_workspace_key(&mut cfg, key, value).map_err(&err)?;
                }
                None => {
                    return Err(err(format!(
                        "key `{key}` outside any section; use [workspace] or [rules.<name>]"
                    )))
                }
            }
        }
        Ok(cfg)
    }

    /// Settings for `rule`, panicking on unknown names (rule names are a
    /// closed, compile-time set).
    pub fn rule(&self, rule: &str) -> &RuleCfg {
        &self.rules[rule]
    }
}

fn apply_workspace_key(cfg: &mut Config, key: &str, value: Value) -> Result<(), String> {
    match (key, value) {
        ("exclude", Value::Array(v)) => cfg.exclude = v,
        ("deterministic_crates", Value::Array(v)) => cfg.deterministic_crates = v,
        ("library_crates", Value::Array(v)) => cfg.library_crates = v,
        ("allow_expect", Value::Bool(b)) => cfg.allow_expect = b,
        ("exclude" | "deterministic_crates" | "library_crates" | "allow_expect", v) => {
            return Err(format!("wrong type for `{key}`: {v:?}"))
        }
        _ => return Err(format!("unknown [workspace] key `{key}`")),
    }
    Ok(())
}

fn apply_rule_key(rc: &mut RuleCfg, key: &str, value: Value) -> Result<(), String> {
    match (key, value) {
        ("severity", Value::Str(s)) => {
            rc.severity = Severity::parse(&s)
                .ok_or_else(|| format!("severity must be allow|warn|deny, got `{s}`"))?;
        }
        ("include_tests", Value::Bool(b)) => rc.include_tests = b,
        ("exempt_crates", Value::Array(v)) => rc.exempt_crates = v,
        ("exempt_files", Value::Array(v)) => rc.exempt_files = v,
        ("severity" | "include_tests" | "exempt_crates" | "exempt_files", v) => {
            return Err(format!("wrong type for `{key}`: {v:?}"))
        }
        _ => return Err(format!("unknown rule key `{key}`")),
    }
    Ok(())
}

/// Drops a trailing `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str) -> Result<Value, String> {
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = s.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{s}`"))?;
        return Ok(Value::Str(body.to_string()));
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| format!("arrays must close on the same line: `{s}`"))?;
        let mut items = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            match parse_value(part)? {
                Value::Str(item) => items.push(item),
                other => return Err(format!("arrays hold strings only, got {other:?}")),
            }
        }
        return Ok(Value::Array(items));
    }
    Err(format!(
        "unsupported value `{s}` (expected string, bool, or [\"…\"] array)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_every_rule() {
        let cfg = Config::default();
        for name in RULE_NAMES {
            assert!(cfg.rules.contains_key(name), "missing default for {name}");
        }
    }

    #[test]
    fn toml_overrides_apply() {
        let cfg = Config::from_toml(
            r#"
            # comment
            [workspace]
            exclude = ["target", "vendor", "crates/lint/tests/fixtures"]
            allow_expect = false

            [rules.panic-in-lib]
            severity = "deny"   # escalate
            include_tests = true

            [rules.no-unsafe]
            exempt_files = ["crates/tests/tests/alloc_budget.rs"]
            "#,
        )
        .unwrap();
        assert_eq!(
            cfg.rule("no-unsafe").exempt_files,
            ["crates/tests/tests/alloc_budget.rs"]
        );
        assert_eq!(cfg.exclude.len(), 3);
        assert!(!cfg.allow_expect);
        let rc = cfg.rule("panic-in-lib");
        assert_eq!(rc.severity, Severity::Deny);
        assert!(rc.include_tests);
        // Untouched rule keeps its default.
        assert_eq!(cfg.rule("no-wallclock").severity, Severity::Deny);
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let err = Config::from_toml("[rules.made-up]\nseverity = \"deny\"\n").unwrap_err();
        assert!(err.message.contains("unknown section"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn unknown_key_is_an_error() {
        let err = Config::from_toml("[rules.no-wallclock]\nseverty = \"deny\"\n").unwrap_err();
        assert!(err.message.contains("unknown rule key"));
    }

    #[test]
    fn bad_severity_is_an_error() {
        let err = Config::from_toml("[rules.no-wallclock]\nseverity = \"fatal\"\n").unwrap_err();
        assert!(err.message.contains("allow|warn|deny"));
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::from_toml("[workspace]\nexclude = [\"a#b\"]\n").unwrap();
        assert_eq!(cfg.exclude, vec!["a#b".to_string()]);
    }
}
