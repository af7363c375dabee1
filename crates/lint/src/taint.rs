//! Fixed-point taint propagation over the call graph, plus the
//! suppression audit.
//!
//! The per-site rules catch a wallclock read *where it happens*; this
//! pass catches it *where it matters* — a public function of a
//! deterministic crate whose call chain, possibly through helper crates,
//! reaches a nondeterminism **sink**: a wall-clock read, an ambient RNG
//! draw, an unordered container, or a completion-order merge beside
//! worker spawns. Taint seeds at sink sites and propagates backwards
//! along call edges to a fixed point; every tainted public entry reports
//! the full chain (`tainted via core::plan -> runtime::stamp ->
//! Instant::now`) so the finding is actionable without re-deriving the
//! path by hand.
//!
//! Suppressions participate in both directions. A `lint:allow` naming the
//! sink's per-site rule (or `transitive-determinism`) *at the sink site*
//! marks that sink audited and stops it from tainting callers — the six
//! observability-only `Instant::now` reads in `core::experiment` taint
//! nothing. Conversely, every directive must earn its keep: one that
//! neither suppresses a finding nor mutes a sink is itself reported by
//! `unused-suppression`, so stale allows cannot rot in place.

use crate::callgraph::{self, DepMap};
use crate::config::{Config, Severity, RULE_NAMES};
use crate::lexer::{Tok, TokKind};
use crate::rules::{Directive, FileAnalysis, Finding};
use crate::symbols::FnSym;
use std::collections::{BTreeMap, VecDeque};

/// The nondeterminism classes the pass tracks, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// Wall-clock reads: `Instant::now`, `SystemTime`, `UNIX_EPOCH`.
    Wallclock,
    /// Ambient RNG: `thread_rng`, `rand::random`, `from_entropy`, `OsRng`.
    AmbientRng,
    /// Unordered containers: `HashMap` / `HashSet`.
    UnorderedIter,
    /// Completion-order result merge: channels or lock accumulators in a
    /// function that also spawns workers.
    Merge,
}

impl TaintKind {
    /// The per-site rule whose `lint:allow` also mutes this sink.
    pub fn per_site_rule(self) -> &'static str {
        match self {
            TaintKind::Wallclock => "no-wallclock",
            TaintKind::AmbientRng => "no-ambient-rng",
            TaintKind::UnorderedIter => "unordered-iteration",
            TaintKind::Merge => "unordered-parallel-merge",
        }
    }

    fn describe(self) -> &'static str {
        match self {
            TaintKind::Wallclock => "a wall-clock read",
            TaintKind::AmbientRng => "ambient randomness",
            TaintKind::UnorderedIter => "unordered-container iteration",
            TaintKind::Merge => "a completion-order parallel merge",
        }
    }
}

/// One sink occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Class of nondeterminism.
    pub kind: TaintKind,
    /// What to print at the end of a chain (`Instant::now`).
    pub label: &'static str,
    /// 1-based line of the offending token.
    pub line: u32,
}

/// Extracts the sinks of each function in `fns`; result is parallel to
/// `fns`. Suppression is *not* applied here — muting needs the file's
/// directives and happens in [`transitive_findings`].
pub fn extract_sinks(toks: &[Tok], fns: &[FnSym]) -> Vec<Vec<Sink>> {
    fns.iter()
        .map(|f| {
            let (start, end) = f.body;
            if start > end || toks.is_empty() {
                return Vec::new();
            }
            // Scan from the `fn` keyword so signature types count too:
            // `fn sum(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }`
            // is tainted even though the body never names the container.
            let start = f.decl.min(start);
            let end = end.min(toks.len() - 1);
            let body = &toks[start..=end];
            let spawns = body
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "spawn");
            let mut sinks = Vec::new();
            for (i, t) in body.iter().enumerate() {
                if t.kind != TokKind::Ident {
                    continue;
                }
                let sink = match t.text.as_str() {
                    "Instant" if seq(body, i + 1, &["::", "now"]) => {
                        Some((TaintKind::Wallclock, "Instant::now"))
                    }
                    "SystemTime" => Some((TaintKind::Wallclock, "SystemTime")),
                    "UNIX_EPOCH" => Some((TaintKind::Wallclock, "UNIX_EPOCH")),
                    "thread_rng" => Some((TaintKind::AmbientRng, "thread_rng")),
                    "from_entropy" => Some((TaintKind::AmbientRng, "from_entropy")),
                    "OsRng" => Some((TaintKind::AmbientRng, "OsRng")),
                    "rand" if seq(body, i + 1, &["::", "random"]) => {
                        Some((TaintKind::AmbientRng, "rand::random"))
                    }
                    "HashMap" => Some((TaintKind::UnorderedIter, "HashMap")),
                    "HashSet" => Some((TaintKind::UnorderedIter, "HashSet")),
                    "channel" if spawns => Some((TaintKind::Merge, "mpsc channel beside spawn")),
                    "sync_channel" if spawns => {
                        Some((TaintKind::Merge, "mpsc channel beside spawn"))
                    }
                    "Mutex" if spawns => Some((TaintKind::Merge, "Mutex accumulator beside spawn")),
                    "RwLock" if spawns => {
                        Some((TaintKind::Merge, "RwLock accumulator beside spawn"))
                    }
                    _ => None,
                };
                if let Some((kind, label)) = sink {
                    sinks.push(Sink {
                        kind,
                        label,
                        line: t.line,
                    });
                }
            }
            sinks
        })
        .collect()
}

fn seq(toks: &[Tok], from: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, want)| toks.get(from + k).is_some_and(|t| t.text == *want))
}

/// How a function became tainted with one kind.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The sink is in this function's own body.
    Direct { label: &'static str },
    /// Inherited from a callee.
    Via { callee: u32 },
}

/// True when directive `d` covers `line` (its own line or the next).
fn covers(d: &Directive, line: u32) -> bool {
    d.reason.is_some() && (d.line == line || d.line + 1 == line)
}

/// Runs the whole graph pass: mutes audited sinks, builds the call graph,
/// propagates taint to a fixed point, and reports every transitively
/// tainted public function of a deterministic crate. Directives that mute
/// a sink or suppress a finding are marked used (for the audit).
pub fn transitive_findings(
    files: &mut [FileAnalysis],
    cfg: &Config,
    deps: Option<&DepMap>,
) -> Vec<Finding> {
    let rc = cfg.rule("transitive-determinism");
    if rc.severity == Severity::Allow {
        return Vec::new();
    }

    // Mute sinks with a covering directive naming the sink's per-site
    // rule or the transitive rule itself.
    for file in files.iter_mut() {
        for fn_sinks in &mut file.sinks {
            fn_sinks.retain(|s| {
                let muted = file.directives.iter_mut().fold(false, |acc, d| {
                    let hit = covers(d, s.line)
                        && d.rules
                            .iter()
                            .any(|r| r == s.kind.per_site_rule() || r == "transitive-determinism");
                    if hit {
                        d.used = true;
                    }
                    acc || hit
                });
                !muted
            });
        }
    }

    // Flatten functions in file order (the ids `callgraph::resolve` uses).
    let pairs: Vec<(&crate::symbols::FileSymbols, &[Vec<callgraph::CallSite>])> = files
        .iter()
        .map(|f| (&f.symbols, f.calls.as_slice()))
        .collect();
    let graph = callgraph::resolve(&pairs, deps);
    let owner: Vec<(usize, usize)> = files
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| (0..f.symbols.fns.len()).map(move |li| (fi, li)))
        .collect();
    let n = owner.len();

    // Seed and propagate: BFS over reverse edges, ids in ascending order,
    // kinds in enum order — fully deterministic, and first-writer-wins
    // yields a shortest chain for every (function, kind).
    let mut taint: Vec<BTreeMap<TaintKind, Step>> = vec![BTreeMap::new(); n];
    let mut queue: VecDeque<(u32, TaintKind)> = VecDeque::new();
    for (id, &(fi, li)) in owner.iter().enumerate() {
        for s in &files[fi].sinks[li] {
            taint[id]
                .entry(s.kind)
                .or_insert(Step::Direct { label: s.label });
        }
        for &kind in taint[id].keys() {
            queue.push_back((id as u32, kind));
        }
    }
    while let Some((id, kind)) = queue.pop_front() {
        let step = Step::Via { callee: id };
        for &caller in &graph.callers[id as usize] {
            if let std::collections::btree_map::Entry::Vacant(slot) =
                taint[caller as usize].entry(kind)
            {
                slot.insert(step);
                queue.push_back((caller, kind));
            }
        }
    }

    // Report tainted public entries of deterministic crates. Direct taint
    // is per-site territory; only call-inherited taint is news.
    let mut findings = Vec::new();
    for (id, &(fi, li)) in owner.iter().enumerate() {
        let file = &files[fi];
        let sym = &file.symbols.fns[li];
        let crate_name = &file.crate_name;
        if !cfg.deterministic_crates.iter().any(|c| c == crate_name)
            || rc.exempt_crates.iter().any(|c| c == crate_name)
            || !sym.is_pub
            || (!rc.include_tests && file.in_tests(sym.line))
        {
            continue;
        }
        for (&kind, step) in &taint[id] {
            let Step::Via { .. } = step else { continue };
            let chain = chain_string(id as u32, kind, &taint, files, &owner);
            findings.push(Finding {
                file: file.rel.clone(),
                line: sym.line,
                rule: "transitive-determinism",
                severity: rc.severity,
                message: format!(
                    "pub fn `{}` in deterministic crate `{}` can reach {}: \
                     tainted via {chain}",
                    sym.qual,
                    crate_name,
                    kind.describe()
                ),
                hint: "break the chain: hoist the sink out to a caller that owns it, \
                       pass the value/seed in explicitly, or audit the sink site with \
                       a `lint:allow(<per-site rule>): reason`",
                suppressed: None,
            });
        }
    }

    // Entry-site suppression: `lint:allow(transitive-determinism)` at the
    // public fn's line.
    suppress_at_site(&mut findings, files);
    findings
}

/// Suppresses each graph-rule finding that a directive naming its rule
/// covers, marking that directive used for the audit.
pub(crate) fn suppress_at_site(findings: &mut [Finding], files: &mut [FileAnalysis]) {
    for f in findings {
        let file = files
            .iter_mut()
            .find(|a| a.rel == f.file)
            .expect("finding file came from `files`");
        for d in &mut file.directives {
            if covers(d, f.line) && d.rules.iter().any(|r| r == f.rule) {
                f.suppressed.clone_from(&d.reason);
                d.used = true;
            }
        }
    }
}

/// Renders `entry -> … -> sink_label` for one tainted function.
fn chain_string(
    entry: u32,
    kind: TaintKind,
    taint: &[BTreeMap<TaintKind, Step>],
    files: &[FileAnalysis],
    owner: &[(usize, usize)],
) -> String {
    let qual = |id: u32| {
        let (fi, li) = owner[id as usize];
        files[fi].symbols.fns[li].qual.clone()
    };
    let mut chain = qual(entry);
    let mut at = entry;
    // The propagation terminated, so chains are acyclic by construction;
    // the bound is sheer paranoia against a future editing mistake.
    for _ in 0..=taint.len() {
        match taint[at as usize].get(&kind) {
            Some(Step::Via { callee }) => {
                at = *callee;
                chain.push_str(" -> ");
                chain.push_str(&qual(at));
            }
            Some(Step::Direct { label }) => {
                chain.push_str(" -> ");
                chain.push_str(label);
                break;
            }
            None => break,
        }
    }
    chain
}

/// The suppression audit: every directive must either suppress a finding
/// or mute a sink. Directives that do neither — stale allows, reasonless
/// allows, allows naming unknown rules — become findings themselves. A
/// directive may be excused by a covering `lint:allow(unused-suppression)`
/// (which thereby earns *its* keep).
pub fn audit_suppressions(files: &mut [FileAnalysis], cfg: &Config) -> Vec<Finding> {
    let rc = cfg.rule("unused-suppression");
    if rc.severity == Severity::Allow {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for file in files.iter_mut() {
        if rc.exempt_crates.iter().any(|c| c == &file.crate_name) {
            continue;
        }
        // Pass 1: let unused-suppression directives excuse other unused
        // directives (marking the excuser used), so the excuser itself is
        // not reported in pass 2.
        let unused: Vec<usize> = (0..file.directives.len())
            .filter(|&i| !file.directives[i].used)
            .collect();
        let mut excused: BTreeMap<usize, String> = BTreeMap::new();
        for &di in &unused {
            let line = file.directives[di].line;
            let excuser = (0..file.directives.len()).find(|&ei| {
                ei != di
                    && covers(&file.directives[ei], line)
                    && file.directives[ei]
                        .rules
                        .iter()
                        .any(|r| r == "unused-suppression")
            });
            if let Some(ei) = excuser {
                let reason = file.directives[ei]
                    .reason
                    .clone()
                    .expect("covers() requires a reason");
                file.directives[ei].used = true;
                excused.insert(di, reason);
            }
        }
        // Pass 2: report what is still unused.
        for di in 0..file.directives.len() {
            if file.directives[di].used {
                continue;
            }
            let d = &file.directives[di];
            if !rc.include_tests && file.in_tests(d.line) {
                continue;
            }
            let rule_list = d.rules.join(", ");
            let unknown: Vec<&str> = d
                .rules
                .iter()
                .map(String::as_str)
                .filter(|r| !RULE_NAMES.contains(r))
                .collect();
            let message = if d.reason.is_none() {
                format!(
                    "`lint:allow({rule_list})` lacks the mandatory `: reason` \
                     and suppresses nothing"
                )
            } else if !unknown.is_empty() {
                format!(
                    "`lint:allow({rule_list})` names unknown rule(s) {} — \
                     the directive suppresses nothing",
                    unknown.join(", ")
                )
            } else {
                format!(
                    "`lint:allow({rule_list})` no longer suppresses anything — \
                     the finding it silenced is gone"
                )
            };
            findings.push(Finding {
                file: file.rel.clone(),
                line: d.line,
                rule: "unused-suppression",
                severity: rc.severity,
                message,
                hint: "delete the stale directive (or fix its rule list / reason) so \
                       every remaining suppression documents a live, audited exception",
                suppressed: excused.get(&di).cloned(),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::symbols;

    fn sinks_of(src: &str) -> Vec<(TaintKind, &'static str)> {
        let toks = lexer::lex(src).tokens;
        let syms = symbols::extract("crates/x/src/lib.rs", "x", &toks);
        extract_sinks(&toks, &syms.fns)
            .into_iter()
            .flatten()
            .map(|s| (s.kind, s.label))
            .collect()
    }

    #[test]
    fn sink_extraction_per_kind() {
        assert_eq!(
            sinks_of("fn f() { let t = std::time::Instant::now(); }"),
            [(TaintKind::Wallclock, "Instant::now")]
        );
        assert_eq!(
            sinks_of("fn f() { let r = rand::thread_rng(); }"),
            [(TaintKind::AmbientRng, "thread_rng")]
        );
        assert_eq!(
            sinks_of("fn f(m: &std::collections::HashMap<u32, u32>) {}"),
            [(TaintKind::UnorderedIter, "HashMap")],
            "a hash-typed parameter taints the function"
        );
        assert_eq!(
            sinks_of("fn f() { let m: HashMap<u32, u32> = HashMap::new(); }").len(),
            2
        );
        // Locks count only beside spawns.
        assert!(sinks_of("fn f() { let m = Mutex::new(0); }").is_empty());
        assert_eq!(
            sinks_of(
                "fn f() { let m = Mutex::new(0); std::thread::scope(|s| { s.spawn(|| ()); }); }"
            ),
            [(TaintKind::Merge, "Mutex accumulator beside spawn")]
        );
    }

    #[test]
    fn instant_elapsed_is_not_a_sink() {
        assert!(sinks_of("fn f(t: std::time::Instant) { let _ = t.elapsed(); }").is_empty());
    }
}
