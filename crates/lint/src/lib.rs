//! # opass-lint — workspace determinism & invariant linter
//!
//! The Opass reproduction's correctness story rests on bit-exact replay:
//! the incremental engine is asserted identical to `ReferenceEngine`, and
//! every figure must repeat bit for bit from its seed. Nothing in
//! `rustc` or clippy stops the classic determinism killers — unordered
//! `HashMap` iteration, wall-clock reads, ambient RNG — from creeping into
//! the simulation crates. This crate is the static gate that does.
//!
//! It is a self-contained analyzer (the workspace builds offline, so no
//! `syn`): a hand-rolled Rust lexer ([`lexer`]), a rule engine ([`rules`]),
//! a `lint.toml` config layer ([`config`]), and a workspace-level graph
//! pass — a symbol table ([`symbols`]), call-graph builder ([`callgraph`])
//! and fixed-point taint propagator ([`taint`]) that catch determinism
//! sinks reachable *through helper calls*, a public-surface rule
//! ([`surface`]) that flags `pub` items no other file names, and an audit
//! that reports `lint:allow` directives which no longer suppress anything. See
//! `DESIGN.md` ("Determinism invariants & static enforcement") for the
//! rule catalog and the rationale behind each rule.
//!
//! ```
//! use opass_lint::{config::Config, rules::lint_source};
//!
//! let findings = lint_source(
//!     "crates/dfs/src/x.rs",
//!     "use std::collections::HashMap;",
//!     &Config::default(),
//! );
//! assert_eq!(findings[0].rule, "unordered-iteration");
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod surface;
pub mod symbols;
pub mod taint;

use callgraph::DepMap;
use config::{Config, ConfigError};
use rules::{FileAnalysis, Finding};
use std::path::{Path, PathBuf};

/// Loads `lint.toml` from `root`, falling back to [`Config::default`]
/// when the file does not exist.
pub fn load_config(root: &Path) -> Result<Config, ConfigError> {
    let path = root.join("lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(src) => Config::from_toml(&src),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(ConfigError {
            message: format!("cannot read {}: {e}", path.display()),
            line: 0,
        }),
    }
}

/// Lints every `.rs` file under `root`, honoring `cfg.exclude`, and
/// returns all findings (suppressed ones included — callers filter).
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, cfg, &mut paths)?;
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .expect("collected under root")
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    let deps = DepMap::from_workspace(root);
    Ok(lint_sources(&sources, cfg, Some(&deps)))
}

/// Lints a set of in-memory `(workspace-relative path, source)` pairs as
/// one workspace: per-site rules per file, in path-sorted order, then the
/// graph rules (`transitive-determinism`, `unused-pub`,
/// `unused-suppression`) across all of them.
/// `deps` (when given) restricts call-graph edges to real `Cargo.toml`
/// dependency directions. Fixture suites use this to exercise cross-crate
/// taint without touching the filesystem.
pub fn lint_sources(
    sources: &[(String, String)],
    cfg: &Config,
    deps: Option<&DepMap>,
) -> Vec<Finding> {
    let mut order: Vec<&(String, String)> = sources.iter().collect();
    order.sort_by(|a, b| a.0.cmp(&b.0));
    let files = order
        .into_iter()
        .map(|(path, source)| rules::analyze_file(path, source, cfg))
        .collect();
    finish(files, cfg, deps)
}

/// The workspace-level tail of the pipeline: graph rules over the full
/// file set, merged with the per-site findings, in a deterministic order.
fn finish(mut files: Vec<FileAnalysis>, cfg: &Config, deps: Option<&DepMap>) -> Vec<Finding> {
    let mut findings = taint::transitive_findings(&mut files, cfg, deps);
    findings.extend(surface::unused_pub_findings(&mut files, cfg));
    findings.extend(taint::audit_suppressions(&mut files, cfg));
    for file in files {
        findings.extend(file.findings);
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .expect("walked under root")
            .to_string_lossy()
            .replace('\\', "/");
        if cfg
            .exclude
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
        {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if ty.is_file() && name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
