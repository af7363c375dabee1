//! `opass trace` — generate, parse, and replay access traces.

use crate::args::Flags;
use opass_json::Json;
use opass_serve::{replay_local, replay_remote, Client, ReplayConfig};
use opass_trace::{
    generate_binary_to, generate_text_to, parse_binary, parse_text, TraceRecord, TraceSpec,
    BINARY_MAGIC,
};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

pub const TRACE_USAGE: &str = "usage: opass trace <gen|parse|replay> ...\n\
  opass trace gen [--spec FILE] [--out FILE] [--binary] [--template]\n\
  opass trace parse <trace-file> [--json]\n\
  opass trace replay <trace-file> [--batch N] [--nodes N] [--replication R] \
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
        return emit(flags.value("--out"), "spec template", |out| {
            out.write_all(text.as_bytes())?;
            Ok(text.len() as u64)
        });
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
    let what = format!("trace ({} records)", spec.records);
    if flags.is_set("--binary") {
        emit(flags.value("--out"), &what, |out| {
            generate_binary_to(&spec, out)
        })
    } else {
        emit(flags.value("--out"), &what, |out| {
            generate_text_to(&spec, out)
        })
    }
}

/// `opass trace parse`: parse a trace (text or binary, auto-detected)
/// and print a summary.
fn cmd_parse(argv: &[String]) -> ExitCode {
    let flags = match Flags::parse(argv, &["--json"], &[]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{TRACE_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let records = match load_trace(&flags) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let (datasets, clients, total_bytes, duration_s) = summarize(&records);
    if flags.is_set("--json") {
        let summary = [
            ("records", Json::from(records.len())),
            ("datasets", Json::from(datasets)),
            ("clients", Json::from(clients)),
            ("total_bytes", Json::from(total_bytes)),
            ("duration_s", Json::from(duration_s)),
        ];
        let summary = Json::object(summary.map(|(key, value)| (key.to_string(), value)));
        println!("{}", summary.to_pretty());
    } else {
        println!(
            "{} records over {duration_s:.3}s: {datasets} datasets, {clients} clients",
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
        &["--batch", "--nodes", "--replication", "--seed", "--remote"],
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{TRACE_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let records = match load_trace(&flags) {
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
/// binary framing by magic.
fn load_trace(flags: &Flags) -> Result<Vec<TraceRecord>, ExitCode> {
    let Some(path) = flags.positionals().first() else {
        eprintln!("{TRACE_USAGE}");
        return Err(ExitCode::FAILURE);
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let parsed = if bytes.starts_with(&BINARY_MAGIC) {
        parse_binary(&bytes)
    } else {
        match std::str::from_utf8(&bytes) {
            Ok(text) => parse_text(text),
            Err(e) => {
                eprintln!("{path} is neither a binary trace nor UTF-8 text: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    };
    parsed.map_err(|e| {
        eprintln!("cannot parse {path}: {e}");
        ExitCode::FAILURE
    })
}

/// The datasets, clients, total bytes and span in seconds of a parsed
/// trace.
fn summarize(records: &[TraceRecord]) -> (u64, u64, u64, f64) {
    let mut datasets = 0u64;
    let mut clients = 0u64;
    let mut bytes = 0u64;
    let mut last_us = 0u64;
    for r in records {
        datasets = datasets.max(u64::from(r.dataset) + 1);
        clients = clients.max(u64::from(r.client) + 1);
        bytes += u64::from(r.bytes);
        last_us = last_us.max(r.time_us);
    }
    (datasets, clients, bytes, last_us as f64 / 1e6)
}

/// Streams `write`'s bytes to `out` (stdout when absent) through one
/// buffer and reports them; `write` returns how many it wrote.
fn emit(
    out: Option<&str>,
    what: &str,
    write: impl FnOnce(&mut dyn Write) -> io::Result<u64>,
) -> ExitCode {
    match out {
        Some(path) => {
            let written = File::create(path).and_then(|file| {
                let mut file = BufWriter::new(file);
                let written = write(&mut file)?;
                file.flush()?;
                Ok(written)
            });
            match written {
                Ok(bytes) => {
                    println!("wrote {what} to {path} ({bytes} bytes)");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        None => {
            let mut stdout = BufWriter::new(io::stdout().lock());
            match write(&mut stdout).and_then(|_| stdout.flush()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(_) => ExitCode::FAILURE,
            }
        }
    }
}

/// Prints a flag error plus usage and fails.
fn usage_error(e: &str) -> ExitCode {
    eprintln!("{e}");
    eprintln!("{TRACE_USAGE}");
    ExitCode::FAILURE
}
