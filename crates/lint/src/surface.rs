//! The `unused-pub` rule: public surface is what callers use.
//!
//! A `pub fn`, `pub const` or `pub static` in a library crate's `src/`
//! whose name no other linted file mentions is either dead (nothing calls
//! it) or only used where it is defined (the `pub` is noise). A reference
//! is any identifier token with the same text in another file — other
//! crates, sibling modules, `tests/`, `benches/`, `bench/src` and
//! `examples/` alike. Comments, doc comments and string literals are not
//! tokens, so a name that survives only in prose or a doctest is flagged.
//!
//! The rule under-approximates on purpose, the same way the call graph
//! does ("unresolved means no edge"): any same-named identifier elsewhere
//! counts, `use` lines included, so collisions and re-export-only items
//! escape it. Types, traits and modules are not candidates, because they
//! are named implicitly through signatures and telling those uses apart
//! needs type resolution the linter does not have.

use crate::config::{Config, Severity};
use crate::lexer::{Tok, TokKind};
use crate::rules::{FileAnalysis, Finding};
use crate::taint::suppress_at_site;
use std::collections::BTreeMap;

/// One unrestricted `pub fn` / `pub const` / `pub static` declaration.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// Declared name.
    pub name: String,
    /// `fn`, `const` or `static`.
    pub kind: &'static str,
    /// 1-based line of the `pub` keyword.
    pub line: u32,
}

/// Finds every `pub fn`, `pub const` and `pub static` without a
/// visibility restriction (`pub(crate)` and friends are skipped). Names
/// produced by macro metavariables (`pub fn $name`) are not identifiers
/// and are skipped too.
pub fn extract_pub_items(toks: &[Tok]) -> Vec<PubItem> {
    let ident = |i: usize, text: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    };
    let mut items = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        // `pub(crate)` and friends fall through: `(` is no item keyword.
        if t.kind != TokKind::Ident || t.text != "pub" {
            continue;
        }
        // Skip fn qualifiers; `const` is one only when a `fn` follows.
        let mut j = i + 1;
        while let Some(q) = toks.get(j) {
            let qualifier = match (q.kind, q.text.as_str()) {
                (TokKind::Ident, "unsafe" | "async" | "extern") | (TokKind::Lit, _) => true,
                (TokKind::Ident, "const") => {
                    ident(j + 1, "fn") || ident(j + 1, "unsafe") || ident(j + 1, "async")
                }
                _ => false,
            };
            if !qualifier {
                break;
            }
            j += 1;
        }
        let kind = match toks.get(j).map(|k| k.text.as_str()) {
            Some("fn") => "fn",
            Some("const") => "const",
            Some("static") => {
                if ident(j + 1, "mut") {
                    j += 1;
                }
                "static"
            }
            _ => continue,
        };
        if let Some(name) = toks
            .get(j + 1)
            .filter(|n| n.kind == TokKind::Ident && n.text != "_")
        {
            items.push(PubItem {
                name: name.text.clone(),
                kind,
                line: t.line,
            });
        }
    }
    items
}

/// Reports every candidate item of a library crate's `src/` that no other
/// file names. A covering `lint:allow(unused-pub): reason` suppresses the
/// finding and marks the directive used, for the suppression audit.
pub fn unused_pub_findings(files: &mut [FileAnalysis], cfg: &Config) -> Vec<Finding> {
    let rc = cfg.rule("unused-pub");
    if rc.severity == Severity::Allow {
        return Vec::new();
    }
    let is_candidate_file = |f: &FileAnalysis| {
        cfg.library_crates.contains(&f.crate_name)
            && !rc.exempt_crates.contains(&f.crate_name)
            && f.rel.starts_with(&format!("crates/{}/src/", f.crate_name))
    };
    // How many files name each candidate; the declaring file is one.
    let mut named_by: BTreeMap<&str, u32> = BTreeMap::new();
    for f in files.iter().filter(|f| is_candidate_file(f)) {
        for item in &f.pub_items {
            named_by.insert(&item.name, 0);
        }
    }
    for f in files.iter() {
        for name in &f.idents {
            if let Some(n) = named_by.get_mut(name.as_str()) {
                *n += 1;
            }
        }
    }
    let mut findings = Vec::new();
    for f in files.iter() {
        if !is_candidate_file(f) {
            continue;
        }
        for item in &f.pub_items {
            if named_by[item.name.as_str()] > 1 || (!rc.include_tests && f.in_tests(item.line)) {
                continue;
            }
            findings.push(Finding {
                file: f.rel.clone(),
                line: item.line,
                rule: "unused-pub",
                severity: rc.severity,
                message: format!(
                    "`pub {} {}` is named by no other file: delete it, or drop `pub` \
                     if this file uses it",
                    item.kind, item.name
                ),
                hint: "delete the item if nothing calls it; if only its own file does, \
                       make it private so the public surface is what callers use",
                suppressed: None,
            });
        }
    }
    suppress_at_site(&mut findings, files);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn items(src: &str) -> Vec<(String, &'static str)> {
        extract_pub_items(&lexer::lex(src).tokens)
            .into_iter()
            .map(|i| (i.name, i.kind))
            .collect()
    }

    #[test]
    fn extracts_unrestricted_fns_consts_and_statics() {
        assert_eq!(
            items(
                "pub fn a() {} pub const fn b() {} pub unsafe extern \"C\" fn c() {} \
                 pub const D: u32 = 1; pub static mut E: u8 = 0; pub static F: u8 = 0;"
            ),
            [
                ("a".to_string(), "fn"),
                ("b".to_string(), "fn"),
                ("c".to_string(), "fn"),
                ("D".to_string(), "const"),
                ("E".to_string(), "static"),
                ("F".to_string(), "static"),
            ]
        );
    }

    #[test]
    fn skips_restricted_visibility_types_and_metavariables() {
        assert!(items(
            "pub(crate) fn a() {} pub(super) const B: u8 = 0; pub(in crate::x) fn c() {} \
             pub struct S; pub enum E {} pub trait T {} pub mod m {} pub use x::y; \
             pub const _: () = (); macro_rules! m { ($n:ident) => { pub fn $n() {} } }"
        )
        .is_empty());
    }
}
