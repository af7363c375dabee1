//! `opass-lint` binary: walk the workspace, run every rule, report.
//!
//! ```text
//! opass-lint [--root DIR] [--format human|json|sarif] [--fix-hints]
//!            [--strict] [--show-suppressed] [PATH...]
//! ```
//!
//! Exit codes: 0 clean, 1 deny-level findings (any finding under
//! `--strict`), 2 usage/config/IO error.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use opass_lint::report::{self, HumanOpts};
use opass_lint::rules::Finding;
use opass_lint::{config::Severity, load_config};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Args {
    root: Option<PathBuf>,
    format: Format,
    fix_hints: bool,
    strict: bool,
    show_suppressed: bool,
    paths: Vec<String>,
}

const USAGE: &str = "usage: opass-lint [--root DIR] [--format human|json|sarif] \
                     [--fix-hints] [--strict] [--show-suppressed] [PATH...]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format: Format::Human,
        fix_hints: false,
        strict: false,
        show_suppressed: false,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--format" => match it.next().as_deref() {
                Some("human") => args.format = Format::Human,
                Some("json") => args.format = Format::Json,
                Some("sarif") => args.format = Format::Sarif,
                other => return Err(format!("--format human|json|sarif, got {other:?}")),
            },
            "--fix-hints" => args.fix_hints = true,
            "--strict" => args.strict = true,
            "--show-suppressed" => args.show_suppressed = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            p if !p.starts_with('-') => args.paths.push(p.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The workspace root: `--root` if given, else the nearest ancestor of the
/// current directory containing `lint.toml` (falling back to cwd).
fn find_root(args: &Args) -> PathBuf {
    if let Some(r) = &args.root {
        return r.clone();
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        if dir.join("lint.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return cwd;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let root = find_root(&args);
    let cfg = match load_config(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("opass-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let mut findings = match opass_lint::lint_workspace(&root, &cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("opass-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if !args.paths.is_empty() {
        findings.retain(|f| args.paths.iter().any(|p| f.file.starts_with(p.as_str())));
    }

    let (suppressed, active): (Vec<Finding>, Vec<Finding>) =
        findings.into_iter().partition(|f| f.suppressed.is_some());
    let denies = active
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warns = active.len() - denies;

    let out = match args.format {
        Format::Json => report::render_json(&active, &suppressed, denies, warns),
        Format::Sarif => report::render_sarif(&active, &suppressed),
        Format::Human => report::render_human(
            HumanOpts {
                fix_hints: args.fix_hints,
                show_suppressed: args.show_suppressed,
            },
            &active,
            &suppressed,
            denies,
            warns,
        ),
    };
    // Ignore write errors: a closed pipe (`opass-lint | head`) must not
    // panic, and the exit code below is the contract that matters.
    use std::io::Write;
    let _ = std::io::stdout().write_all(out.as_bytes());

    if denies > 0 || (args.strict && !active.is_empty()) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
