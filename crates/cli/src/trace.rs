//! `opass trace` — generate, parse, and replay access traces.

use crate::args::Flags;
use opass_json::Json;
use opass_serve::{replay_local, replay_remote, Client, ReplayConfig};
use opass_trace::{
    generate_text, parse_binary, parse_text_with_threads, write_binary, TraceRecord, TraceSpec,
    BINARY_MAGIC,
};
use std::process::ExitCode;

pub const TRACE_USAGE: &str = "usage: opass trace <gen|parse|replay> ...\n\
  opass trace gen [--spec FILE] [--out FILE] [--binary] [--template]\n\
  opass trace parse <trace-file> [--threads N] [--json]\n\
  opass trace replay <trace-file> [--threads N] [--batch N] [--nodes N] [--replication R] \
     [--seed S] [--no-churn] [--remote HOST:PORT] [--json]";

/// Dispatches `opass trace <gen|parse|replay>`.
pub fn cmd_trace(argv: &[String]) -> ExitCode {
    match argv.first().map(String::as_str) {
        Some("gen") => cmd_gen(&argv[1..]),
        Some("parse") => cmd_parse(&argv[1..]),
        Some("replay") => cmd_replay(&argv[1..]),
        _ => {
            eprintln!("{TRACE_USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `opass trace gen`: write a template spec, or generate a trace from a
/// spec file (text by default, binary with `--binary`).
fn cmd_gen(argv: &[String]) -> ExitCode {
    let flags = match Flags::parse(argv, &["--binary", "--template"], &["--spec", "--out"]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{TRACE_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if flags.is_set("--template") {
        let text = TraceSpec::default().to_json().to_pretty();
        return emit(flags.value("--out"), text.into_bytes(), "spec template");
    }
    let spec = match flags.value("--spec") {
        Some(path) => {
            let content = match std::fs::read_to_string(path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match TraceSpec::from_json_str(&content) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("invalid spec {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => TraceSpec::default(),
    };
    let payload = if flags.is_set("--binary") {
        write_binary(&opass_trace::generate(&spec))
    } else {
        generate_text(&spec).into_bytes()
    };
    emit(
        flags.value("--out"),
        payload,
        &format!("trace ({} records)", spec.records),
    )
}

/// `opass trace parse`: parse a trace (text or binary, auto-detected)
/// and print a summary.
fn cmd_parse(argv: &[String]) -> ExitCode {
    let flags = match Flags::parse(argv, &["--json"], &["--threads"]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{TRACE_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (records, threads) = match load_trace(&flags) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let summary = summarize(&records, threads);
    if flags.is_set("--json") {
        println!("{}", summary.to_pretty());
    } else {
        let datasets = summary.get("datasets").and_then(Json::as_u64).unwrap_or(0);
        let clients = summary.get("clients").and_then(Json::as_u64).unwrap_or(0);
        let span = summary
            .get("duration_s")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        println!(
            "{} records over {span:.3}s: {datasets} datasets, {clients} clients ({threads} threads)",
            records.len()
        );
    }
    ExitCode::SUCCESS
}

/// `opass trace replay`: fold a trace into the planning pipeline,
/// locally or against a running `opass serve`.
fn cmd_replay(argv: &[String]) -> ExitCode {
    let flags = match Flags::parse(
        argv,
        &["--json", "--no-churn"],
        &[
            "--threads",
            "--batch",
            "--nodes",
            "--replication",
            "--seed",
            "--remote",
        ],
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{TRACE_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (records, _) = match load_trace(&flags) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let defaults = ReplayConfig::default();
    let config = ReplayConfig {
        n_nodes: match flags.value_or("--nodes", defaults.n_nodes) {
            Ok(n) => n,
            Err(e) => return usage_error(&e),
        },
        replication: match flags.value_or("--replication", defaults.replication) {
            Ok(r) => r,
            Err(e) => return usage_error(&e),
        },
        seed: match flags.value_or("--seed", defaults.seed) {
            Ok(s) => s,
            Err(e) => return usage_error(&e),
        },
        batch_records: match flags.value_or("--batch", defaults.batch_records) {
            Ok(b) => b,
            Err(e) => return usage_error(&e),
        },
        churn: !flags.is_set("--no-churn"),
    };
    let report = match flags.value("--remote") {
        Some(addr) => {
            let mut client = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot connect to {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            replay_remote(&records, &config, &mut client)
        }
        None => replay_local(&records, &config),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.is_set("--json") {
        println!("{}", report.to_json().to_pretty());
    } else {
        println!(
            "replayed {} records in {} batches across {} datasets: {} migrations, \
             batch locality {:.3}, session locality {:.3}, fingerprint {:016x}",
            report.records,
            report.batches,
            report.datasets,
            report.migrations,
            report.mean_batch_locality,
            report.mean_session_locality,
            report.fingerprint()
        );
    }
    ExitCode::SUCCESS
}

/// Reads the trace file named by the first positional, auto-detecting the
/// binary framing by magic. Text parses on `--threads` threads; binary
/// decodes on one. Returns the records and the thread count that parsed
/// them.
fn load_trace(flags: &Flags) -> Result<(Vec<TraceRecord>, usize), ExitCode> {
    let Some(path) = flags.positionals().first() else {
        eprintln!("{TRACE_USAGE}");
        return Err(ExitCode::FAILURE);
    };
    let threads = match flags.threads(default_threads()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{TRACE_USAGE}");
            return Err(ExitCode::FAILURE);
        }
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let (parsed, threads) = if bytes.starts_with(&BINARY_MAGIC) {
        (parse_binary(&bytes), 1)
    } else {
        match std::str::from_utf8(&bytes) {
            Ok(text) => (parse_text_with_threads(text, threads), threads),
            Err(e) => {
                eprintln!("{path} is neither a binary trace nor UTF-8 text: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    };
    match parsed {
        Ok(records) => Ok((records, threads)),
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Default parse parallelism: the machine's cores.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Summary statistics of a parsed trace as a JSON object.
fn summarize(records: &[TraceRecord], threads: usize) -> Json {
    let mut datasets = 0u64;
    let mut clients = 0u64;
    let mut bytes = 0u64;
    let mut last_us = 0u64;
    for r in records {
        datasets = datasets.max(u64::from(r.dataset) + 1);
        clients = clients.max(u64::from(r.client) + 1);
        bytes += r.bytes;
        last_us = last_us.max(r.time_us);
    }
    Json::object([
        ("records".to_string(), Json::from(records.len())),
        ("datasets".to_string(), Json::from(datasets)),
        ("clients".to_string(), Json::from(clients)),
        ("total_bytes".to_string(), Json::from(bytes)),
        ("duration_s".to_string(), Json::from(last_us as f64 / 1e6)),
        ("threads".to_string(), Json::from(threads)),
    ])
}

/// Writes `payload` to `out` (stdout when absent) and reports it.
fn emit(out: Option<&str>, payload: Vec<u8>, what: &str) -> ExitCode {
    match out {
        Some(path) => match std::fs::write(path, &payload) {
            Ok(()) => {
                println!("wrote {what} to {path} ({} bytes)", payload.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                ExitCode::FAILURE
            }
        },
        None => {
            use std::io::Write as _;
            if std::io::stdout().write_all(&payload).is_err() {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
    }
}

/// Prints a flag error plus usage and fails.
fn usage_error(e: &str) -> ExitCode {
    eprintln!("{e}");
    eprintln!("{TRACE_USAGE}");
    ExitCode::FAILURE
}
