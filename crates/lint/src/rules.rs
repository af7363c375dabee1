//! The shipped rules and the per-file analysis driver.
//!
//! Every rule works on the token stream from [`crate::lexer`] plus a
//! precomputed set of "test lines" (lines inside `#[cfg(test)]` /
//! `#[test]` items, or in files under a `tests/` / `benches/` directory).
//! Findings are then filtered through inline suppression directives:
//!
//! ```text
//! // lint:allow(rule-name): reason the invariant is safe here
//! ```
//!
//! A directive suppresses findings of the named rule(s) on its own line and
//! on the next line. The reason is mandatory — a bare `lint:allow(rule)` is
//! ignored and the finding is reported with a note, so suppressions stay
//! auditable.

use crate::callgraph::{self, CallSite};
use crate::config::{Config, RuleCfg, Severity};
use crate::lexer::{self, Tok, TokKind};
use crate::surface::{self, PubItem};
use crate::symbols::{self, FileSymbols};
use crate::taint::{self, Sink};
use std::collections::BTreeSet;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of [`crate::config::RULE_NAMES`]).
    pub rule: &'static str,
    /// Effective severity (after config).
    pub severity: Severity,
    /// Human explanation of what was matched.
    pub message: String,
    /// Suggested replacement, shown under `--fix-hints` and in JSON.
    pub hint: &'static str,
    /// Reason text when an inline directive suppressed this finding.
    pub suppressed: Option<String>,
}

/// A parsed `lint:allow` directive. `used` is set by whatever the
/// directive actually does — suppressing a finding, muting a taint sink,
/// or excusing another directive — and audited by `unused-suppression`.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line of the comment carrying the directive.
    pub line: u32,
    /// Rule names inside `lint:allow(…)`.
    pub rules: Vec<String>,
    /// Mandatory reason after the closing `):`; `None` when omitted.
    pub reason: Option<String>,
    /// Whether the directive suppressed or muted anything.
    pub used: bool,
}

/// Everything one file contributes to the workspace pass: its per-site
/// findings (suppressions already applied), its directives, and the raw
/// material for the graph rules (symbols, call sites, taint sinks,
/// public items and the identifiers the file names).
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub rel: String,
    /// Crate the path belongs to (see [`analyze_file`]).
    pub crate_name: String,
    /// Per-site findings, sorted by (line, rule), suppressions applied.
    pub findings: Vec<Finding>,
    /// Suppression directives in source order.
    pub directives: Vec<Directive>,
    /// The file's symbol table.
    pub symbols: FileSymbols,
    /// Call sites per function (parallel to `symbols.fns`).
    pub calls: Vec<Vec<CallSite>>,
    /// Taint sinks per function (parallel to `symbols.fns`).
    pub sinks: Vec<Vec<Sink>>,
    /// Unrestricted `pub fn` / `pub const` / `pub static` declarations.
    pub pub_items: Vec<PubItem>,
    /// Every identifier token text in the file (references for `unused-pub`).
    pub idents: BTreeSet<String>,
    /// Line ranges of `#[test]` / `#[cfg(test)]` items.
    pub test_lines: Vec<(u32, u32)>,
    /// Whole file counts as test code (`tests/` / `benches/` path).
    pub path_is_test: bool,
}

impl FileAnalysis {
    /// True when `line` is inside test code.
    pub fn in_tests(&self, line: u32) -> bool {
        self.path_is_test || self.test_lines.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// Analysis context for one file.
struct FileCtx {
    rel: String,
    crate_name: String,
    toks: Vec<Tok>,
    test_lines: Vec<(u32, u32)>,
    path_is_test: bool,
}

impl FileCtx {
    fn in_tests(&self, line: u32) -> bool {
        self.path_is_test || self.test_lines.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// Lints one file's source text with the **per-site** rules only. `rel`
/// is the workspace-relative path; it determines the crate context
/// (`crates/<name>/…` or `vendor/<name>/…`) and whether the whole file
/// counts as test code. The graph rules (`transitive-determinism`,
/// `unused-pub`, `unused-suppression`) need the whole workspace — use
/// [`crate::lint_sources`] / [`crate::lint_workspace`] for those.
pub fn lint_source(rel: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    analyze_file(rel, source, cfg).findings
}

/// Runs the per-site rules on one file and extracts the raw material the
/// workspace-level graph rules consume.
pub fn analyze_file(rel: &str, source: &str, cfg: &Config) -> FileAnalysis {
    let lexed = lexer::lex(source);
    let ctx = FileCtx {
        rel: rel.to_string(),
        crate_name: crate_of(rel),
        test_lines: test_regions(&lexed.tokens),
        path_is_test: rel.split('/').any(|c| c == "tests" || c == "benches"),
        toks: lexed.tokens,
    };
    let mut findings = Vec::new();
    unordered_iteration(&ctx, cfg, &mut findings);
    unordered_parallel_merge(&ctx, cfg, &mut findings);
    no_wallclock(&ctx, cfg, &mut findings);
    no_ambient_rng(&ctx, cfg, &mut findings);
    float_accumulation_order(&ctx, cfg, &mut findings);
    panic_in_lib(&ctx, cfg, &mut findings);
    no_unsafe(&ctx, cfg, &mut findings);
    let mut directives = parse_directives(&lexed.comments);
    apply_suppressions(&mut findings, &mut directives);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    let sym = symbols::extract(rel, &ctx.crate_name, &ctx.toks);
    let calls = callgraph::extract_calls(&ctx.toks, &sym.fns);
    let sinks = taint::extract_sinks(&ctx.toks, &sym.fns);
    let pub_items = surface::extract_pub_items(&ctx.toks);
    let idents = ctx
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    FileAnalysis {
        rel: ctx.rel,
        crate_name: ctx.crate_name,
        findings,
        directives,
        symbols: sym,
        calls,
        sinks,
        pub_items,
        idents,
        test_lines: ctx.test_lines,
        path_is_test: ctx.path_is_test,
    }
}

/// Crate name for a workspace-relative path: the component after
/// `crates/` or `vendor/`, the top-level directory otherwise (so files in
/// `examples/` report as crate `examples`), or `"root"` for top-level
/// files.
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") | Some("vendor") => parts.next().unwrap_or("root").to_string(),
        Some(first) if rel.contains('/') => first.to_string(),
        _ => "root".to_string(),
    }
}

fn enabled<'c>(ctx: &FileCtx, cfg: &'c Config, rule: &str) -> Option<&'c RuleCfg> {
    let rc = cfg.rule(rule);
    if rc.severity == Severity::Allow
        || rc.exempt_crates.iter().any(|c| c == &ctx.crate_name)
        || rc.exempt_files.iter().any(|f| f == &ctx.rel)
    {
        return None;
    }
    Some(rc)
}

fn push(
    findings: &mut Vec<Finding>,
    ctx: &FileCtx,
    rc: &RuleCfg,
    rule: &'static str,
    line: u32,
    message: String,
    hint: &'static str,
) {
    if !rc.include_tests && ctx.in_tests(line) {
        return;
    }
    findings.push(Finding {
        file: ctx.rel.clone(),
        line,
        rule,
        severity: rc.severity,
        message,
        hint,
        suppressed: None,
    });
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn unordered_iteration(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    let Some(rc) = enabled(ctx, cfg, "unordered-iteration") else {
        return;
    };
    if !cfg
        .deterministic_crates
        .iter()
        .any(|c| c == &ctx.crate_name)
    {
        return;
    }
    for t in &ctx.toks {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                out,
                ctx,
                rc,
                "unordered-iteration",
                t.line,
                format!(
                    "`{}` in deterministic crate `{}`: iteration order varies \
                     between runs and toolchains",
                    t.text, ctx.crate_name
                ),
                "use BTreeMap/BTreeSet, or collect into a Vec and sort, so every \
                 traversal order is reproducible",
            );
        }
    }
}

/// Flags completion-order result collection next to worker spawns in
/// deterministic crates. The workspace's parallel kernels (Monte-Carlo
/// fanout, trace parsing) are bit-identical to their sequential
/// references *because* every merge joins worker
/// handles in spawn order — fixed splits in, indexed results out. A
/// channel delivers results in completion order, and a shared
/// `Mutex`/`RwLock` accumulator commits writes in scheduling order;
/// either one silently turns "bit-identical" into "usually identical".
/// The heuristic: in a file that spawns workers, any mpsc channel
/// constructor or lock-wrapped accumulator is reported.
fn unordered_parallel_merge(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    let Some(rc) = enabled(ctx, cfg, "unordered-parallel-merge") else {
        return;
    };
    if !cfg
        .deterministic_crates
        .iter()
        .any(|c| c == &ctx.crate_name)
    {
        return;
    }
    let toks = &ctx.toks;
    if !toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "spawn")
    {
        return;
    }
    for t in toks {
        if t.kind != TokKind::Ident {
            continue;
        }
        let what = match t.text.as_str() {
            "channel" | "sync_channel" => "an mpsc channel merges results in completion order",
            "Mutex" | "RwLock" => {
                "a shared lock accumulator commits worker writes in scheduling order"
            }
            _ => continue,
        };
        push(
            out,
            ctx,
            rc,
            "unordered-parallel-merge",
            t.line,
            format!(
                "`{}` next to worker spawns in deterministic crate `{}`: {what}, \
                 so the merged result varies with thread timing",
                t.text, ctx.crate_name
            ),
            "give each worker a fixed input slice, return its result through \
             its JoinHandle, and merge by joining handles in spawn order (or \
             index results by worker id and assemble positionally)",
        );
    }
}

fn no_wallclock(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    let Some(rc) = enabled(ctx, cfg, "no-wallclock") else {
        return;
    };
    let toks = &ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "SystemTime" | "UNIX_EPOCH" => true,
            "Instant" => matches_seq(toks, i + 1, &["::", "now"]),
            _ => false,
        };
        if hit {
            push(
                out,
                ctx,
                rc,
                "no-wallclock",
                t.line,
                format!(
                    "wall-clock read (`{}`) in simulation-critical code: results \
                     would differ between hosts and runs",
                    t.text
                ),
                "use the simulated clock (SimTime) or accept elapsed values from \
                 the caller; wall-clock timing belongs in cli/bench only",
            );
        }
    }
}

fn no_unsafe(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    let Some(rc) = enabled(ctx, cfg, "no-unsafe") else {
        return;
    };
    let mut last_line = 0;
    for t in &ctx.toks {
        // The keyword itself, and the lint name a file would have to
        // mention to lift the workspace's `unsafe_code = "deny"`.
        let hit = t.kind == TokKind::Ident && matches!(t.text.as_str(), "unsafe" | "unsafe_code");
        if hit && t.line != last_line {
            last_line = t.line;
            push(
                out,
                ctx,
                rc,
                "no-unsafe",
                t.line,
                format!(
                    "`{}` outside the audited exceptions: the workspace is safe Rust",
                    t.text
                ),
                "use indices into a Vec, or Rc/Weak; a file that cannot do without \
                 unsafe is listed under [rules.no-unsafe] exempt_files in lint.toml",
            );
        }
    }
}

fn no_ambient_rng(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    let Some(rc) = enabled(ctx, cfg, "no-ambient-rng") else {
        return;
    };
    let toks = &ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "thread_rng" | "from_entropy" | "OsRng" => true,
            "rand" => matches_seq(toks, i + 1, &["::", "random"]),
            _ => false,
        };
        if hit {
            push(
                out,
                ctx,
                rc,
                "no-ambient-rng",
                t.line,
                format!(
                    "ambient randomness (`{}`): every random draw must come from \
                     an explicitly seeded generator",
                    t.text
                ),
                "thread an `StdRng::seed_from_u64(seed)` (or a split-off child \
                 seed) down from the experiment configuration",
            );
        }
    }
}

/// Flags f64/f32 `sum`/`product`/`fold` that follows a `HashMap`/`HashSet`
/// mention with no `;` or `}` in between. The window deliberately survives
/// `{` so a hash-typed parameter taints the first statement of the
/// function body — `fn f(m: &HashMap<u32, f64>) -> f64 { m.values()
/// .sum::<f64>() }` is exactly the realistic offender. This is a heuristic
/// (no type inference without `syn`), and `unordered-iteration` already
/// bans the containers wholesale in deterministic crates.
fn float_accumulation_order(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    let Some(rc) = enabled(ctx, cfg, "float-accumulation-order") else {
        return;
    };
    let toks = &ctx.toks;
    let mut hash_in_window = false;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct && (t.text == ";" || t.text == "}") {
            hash_in_window = false;
            continue;
        }
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            hash_in_window = true;
        }
        if !hash_in_window || t.kind != TokKind::Ident {
            continue;
        }
        let float_acc = match t.text.as_str() {
            // .sum::<f64>() / .product::<f32>()
            "sum" | "product" => float_turbofish(toks, i + 1),
            // .fold(0.0, …) / .fold(0f64, …)
            "fold" => {
                matches_seq(toks, i + 1, &["("])
                    && toks.get(i + 2).is_some_and(|n| {
                        n.kind == TokKind::Num
                            && (n.text.contains('.')
                                || n.text.ends_with("f64")
                                || n.text.ends_with("f32"))
                    })
            }
            _ => false,
        };
        if float_acc {
            push(
                out,
                ctx,
                rc,
                "float-accumulation-order",
                t.line,
                format!(
                    "float `{}` over an unordered container: f64 addition is not \
                     associative, so the result depends on iteration order",
                    t.text
                ),
                "accumulate over an ordered container (BTreeMap / sorted Vec) so \
                 the reduction order — and therefore the rounding — is fixed",
            );
        }
    }
}

fn panic_in_lib(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    let Some(rc) = enabled(ctx, cfg, "panic-in-lib") else {
        return;
    };
    if !cfg.library_crates.iter().any(|c| c == &ctx.crate_name) {
        return;
    }
    let toks = &ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let (hit, what) = match t.text.as_str() {
            "unwrap" => (
                i > 0 && toks[i - 1].text == "." && matches_seq(toks, i + 1, &["(", ")"]),
                "`.unwrap()` hides which invariant failed",
            ),
            "expect" if !cfg.allow_expect => (
                i > 0 && toks[i - 1].text == "." && matches_seq(toks, i + 1, &["("]),
                "`.expect(…)` panics in library code",
            ),
            "panic" | "todo" | "unimplemented" => (
                matches_seq(toks, i + 1, &["!"]),
                "explicit panic in library code",
            ),
            _ => (false, ""),
        };
        if hit {
            push(
                out,
                ctx,
                rc,
                "panic-in-lib",
                t.line,
                format!("{what} (crate `{}` is a library)", ctx.crate_name),
                "return a typed error, or use `.expect(\"<invariant that makes \
                 this unreachable>\")` to document why it cannot fail",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// True when `toks[from..]` starts with exactly `texts` (token text match).
fn matches_seq(toks: &[Tok], from: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, want)| toks.get(from + k).is_some_and(|t| t.text == *want))
}

/// True for a `::<f64>` / `::<f32>` turbofish starting at `from`.
fn float_turbofish(toks: &[Tok], from: usize) -> bool {
    matches_seq(toks, from, &["::", "<", "f64", ">"])
        || matches_seq(toks, from, &["::", "<", "f32", ">"])
}

/// Line ranges of items annotated `#[test]` or `#[cfg(test)]` (attribute
/// line through the closing brace / semicolon of the item that follows).
fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // An attribute starts with `#` `[` (inner attributes `#![…]` are
        // skipped — they cover the whole file, which path rules handle).
        if toks[i].text == "#" && matches_seq(toks, i + 1, &["["]) {
            let attr_start = i;
            let Some(close) = matching_delim(toks, i + 1, "[", "]") else {
                break;
            };
            let body = &toks[i + 2..close];
            let is_test_attr = matches_seq(body, 0, &["test"]) && body.len() == 1
                || matches_seq(body, 0, &["cfg", "(", "test", ")"]);
            i = close + 1;
            if !is_test_attr {
                continue;
            }
            // Skip any further attributes, then span the item itself: to
            // the first `;` at depth 0, or through a brace block.
            let mut j = i;
            while j < toks.len() && toks[j].text == "#" && matches_seq(toks, j + 1, &["["]) {
                match matching_delim(toks, j + 1, "[", "]") {
                    Some(c) => j = c + 1,
                    None => return regions,
                }
            }
            let mut end = toks.len().saturating_sub(1);
            let mut k = j;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    ";" => {
                        end = k;
                        break;
                    }
                    "{" => {
                        end = matching_delim(toks, k, "{", "}").unwrap_or(toks.len() - 1);
                        break;
                    }
                    _ => k += 1,
                }
            }
            regions.push((toks[attr_start].line, toks[end].line));
            i = end + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Index of the delimiter closing the one at `open_idx`.
fn matching_delim(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.kind != TokKind::Punct {
            continue;
        }
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Parses every `lint:allow(rule[, rule…]): reason` directive out of a
/// file's comments, in source order.
pub fn parse_directives(comments: &[lexer::Comment]) -> Vec<Directive> {
    comments
        .iter()
        .filter_map(|c| parse_directive(c.line, &c.text))
        .collect()
}

/// Marks findings covered by a directive as suppressed (and the directive
/// as used). A directive applies to its own line and the line below.
/// Directives without a reason are ignored; the nearest finding gets a
/// note appended so the omission is visible.
pub fn apply_suppressions(findings: &mut [Finding], directives: &mut [Directive]) {
    for f in findings.iter_mut() {
        for d in directives.iter_mut() {
            if f.line != d.line && f.line != d.line + 1 {
                continue;
            }
            if !d.rules.iter().any(|r| r == f.rule) {
                continue;
            }
            match &d.reason {
                Some(reason) => {
                    f.suppressed = Some(reason.clone());
                    d.used = true;
                }
                None => f.message.push_str(
                    " [note: a lint:allow directive was found but lacks the \
                     mandatory `: reason` and was ignored]",
                ),
            }
        }
    }
}

fn parse_directive(line: u32, comment: &str) -> Option<Directive> {
    // Only plain `//` comments that *open* with the directive count. Doc
    // comments (`///` / `//!` — their text keeps a leading `/` or `!`)
    // merely document the syntax, and prose mentioning `lint:allow(…)`
    // mid-sentence is not a waiver. Without this the unused-suppression
    // audit would flag the linter's own documentation.
    let body = comment.trim_start();
    if body.starts_with('/') || body.starts_with('!') {
        return None;
    }
    let rest = body.strip_prefix("lint:allow(")?;
    let (rules, after) = rest.split_once(')')?;
    let rules: Vec<String> = rules
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let reason = after
        .trim_start()
        .strip_prefix(':')
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .map(String::from);
    Some(Directive {
        line,
        rules,
        reason,
        used: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        lint_source(rel, src, &Config::default())
    }

    #[test]
    fn crate_resolution() {
        assert_eq!(crate_of("crates/dfs/src/reader.rs"), "dfs");
        assert_eq!(crate_of("vendor/rand/src/lib.rs"), "rand");
        assert_eq!(crate_of("examples/quickstart.rs"), "examples");
        assert_eq!(crate_of("build.rs"), "root");
    }

    #[test]
    fn hashmap_flagged_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint("crates/dfs/src/x.rs", src).len(), 1);
        assert_eq!(lint("crates/runtime/src/x.rs", src).len(), 0);
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let same = "// lint:allow(unordered-iteration): keyed lookups only\n\
                    use std::collections::HashMap;\n";
        let f = lint("crates/dfs/src/x.rs", same);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].suppressed.as_deref(), Some("keyed lookups only"));

        let inline = "use std::collections::HashMap; // lint:allow(unordered-iteration): ok\n";
        assert!(lint("crates/dfs/src/x.rs", inline)[0].suppressed.is_some());
    }

    #[test]
    fn suppression_without_reason_is_ignored() {
        let src = "// lint:allow(unordered-iteration)\nuse std::collections::HashMap;\n";
        let f = lint("crates/dfs/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed.is_none());
        assert!(f[0].message.contains("lacks the mandatory"));
    }

    #[test]
    fn doc_comments_and_prose_are_not_directives() {
        // A doc comment *documenting* the directive syntax is not a waiver…
        let doc = "//! // lint:allow(unordered-iteration): example\n\
                   use std::collections::HashMap;\n";
        let f = lint("crates/dfs/src/x.rs", doc);
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed.is_none(), "doc comment must not suppress");
        // …and neither is prose that mentions it mid-sentence.
        let prose = "// see the lint:allow(unordered-iteration): note above\n\
                     use std::collections::HashMap;\n";
        let f = lint("crates/dfs/src/x.rs", prose);
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed.is_none(), "prose must not suppress");
    }

    #[test]
    fn parallel_merge_needs_spawn_and_deterministic_crate() {
        let merge = "fn f() { let m = std::sync::Mutex::new(Vec::new()); \
                     std::thread::scope(|s| { s.spawn(|| m); }); }\n";
        let f = lint("crates/matching/src/x.rs", merge);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unordered-parallel-merge");
        // The serving layer legitimately uses locks and channels.
        assert!(lint("crates/serve/src/x.rs", merge).is_empty());
        // A lock without any worker spawn is ordinary shared state.
        let no_spawn = "fn f() { let m = std::sync::Mutex::new(Vec::new()); }\n";
        assert!(lint("crates/matching/src/x.rs", no_spawn).is_empty());
        // Channels next to spawns are completion-order merges too.
        let chan = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); \
                    std::thread::scope(|s| { s.spawn(move || tx); }); }\n";
        let f = lint("crates/core/src/x.rs", chan);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unordered-parallel-merge");
    }

    #[test]
    fn wallclock_exempts_cli_and_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(lint("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(lint("crates/cli/src/x.rs", src).len(), 0);
        assert_eq!(lint("bench/src/x.rs", src).len(), 0);
    }

    #[test]
    fn serve_wallclock_needs_a_directive_like_any_library_crate() {
        // A bare clock read in the serving layer is flagged: the crate
        // lost its blanket exemption when the sharded reactor landed.
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        let f = lint("crates/serve/src/x.rs", clock);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-wallclock");
        // The latency-histogram timer carries a targeted directive, which
        // suppresses the finding (and counts as used, not dangling).
        let timed = "fn f() {\n\
                     // lint:allow(no-wallclock): latency histogram only\n\
                     let t = std::time::Instant::now(); }\n";
        let f = lint("crates/serve/src/x.rs", timed);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].suppressed.as_deref(), Some("latency histogram only"));
        // The other determinism rules keep applying: explicit RNG seeds,
        let rng = "fn f() { let mut r = rand::thread_rng(); }\n";
        let f = lint("crates/serve/src/x.rs", rng);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-ambient-rng");
        // …and as a library crate it may not unwrap outside tests.
        let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let f = lint("crates/serve/src/x.rs", unwrap);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "panic-in-lib");
    }

    #[test]
    fn instant_elapsed_alone_is_fine() {
        // Only the `now` constructor is a wall-clock read.
        let src = "fn f(t: std::time::Instant) -> f64 { t.elapsed().as_secs_f64() }\n";
        assert_eq!(lint("crates/core/src/x.rs", src).len(), 0);
    }

    #[test]
    fn ambient_rng_flagged_everywhere() {
        for rel in ["crates/cli/src/x.rs", "crates/simio/src/x.rs"] {
            let f = lint(rel, "fn f() { let mut r = rand::thread_rng(); }\n");
            assert_eq!(f.len(), 1, "{rel}");
            assert_eq!(f[0].rule, "no-ambient-rng");
        }
    }

    #[test]
    fn float_sum_needs_hash_container_in_statement() {
        let pos = "fn f() { let t = HashMap::from([(1u32, 2.0f64)]).into_values().sum::<f64>(); }";
        let hits: Vec<_> = lint("crates/runtime/src/x.rs", pos)
            .into_iter()
            .filter(|f| f.rule == "float-accumulation-order")
            .collect();
        assert_eq!(hits.len(), 1);
        let neg = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }";
        assert!(lint("crates/runtime/src/x.rs", neg).is_empty());
    }

    #[test]
    fn unwrap_in_lib_warns_but_tests_are_exempt() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let f = lint("crates/matching/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].severity, Severity::Warn);
    }

    #[test]
    fn expect_is_allowed_by_default_and_deniable() {
        let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"invariant\") }\n";
        assert!(lint("crates/matching/src/x.rs", src).is_empty());
        let cfg = Config {
            allow_expect: false,
            ..Config::default()
        };
        assert_eq!(lint_source("crates/matching/src/x.rs", src, &cfg).len(), 1);
    }

    #[test]
    fn integration_test_paths_are_test_code() {
        let src = "fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint("crates/matching/tests/it.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_skips_binary_crates() {
        let src = "fn f() { panic!(\"boom\"); }\n";
        assert!(lint("crates/cli/src/x.rs", src).is_empty());
        assert_eq!(lint("crates/simio/src/x.rs", src).len(), 1);
    }
}
