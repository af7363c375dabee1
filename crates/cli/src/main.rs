//! `opass` — scenario-driven command line for the Opass reproduction.
//!
//! ```text
//! opass init scenario.json          # write a template scenario
//! opass run scenario.json           # run it, print a text comparison
//! opass run scenario.json --json    # machine-readable report
//! opass run scenario.json --metrics out/   # per-node metrics + event log
//! opass analyze --chunks 512 --replication 3 --nodes 128
//! opass figures all                 # every paper figure, CSVs under target/figures/
//! opass figures --out /tmp/figs --seed 7 fig7ab fig12
//! opass serve --addr 127.0.0.1:7455 --workers 4
//! opass plan --remote 127.0.0.1:7455 --dataset 0 --strategy opass
//! opass place --remote 127.0.0.1:7455 --dataset 0 --rounds 4 --apply
//! ```

// Printing is this binary's user interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

mod args;
mod remote;
mod scenario;
mod trace;

use args::Flags;
use opass_cli::{figure, ALL_FIGURES};
use scenario::{ExperimentReport, ScenarioFile};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("init") => cmd_init(&argv[1..]),
        Some("run") => cmd_run(&argv[1..]),
        Some("analyze") => cmd_analyze(&argv[1..]),
        Some("figures") => cmd_figures(&argv[1..]),
        Some("serve") => remote::cmd_serve(&argv[1..]),
        Some("plan") => remote::cmd_plan(&argv[1..]),
        Some("place") => remote::cmd_place(&argv[1..]),
        Some("trace") => trace::cmd_trace(&argv[1..]),
        _ => {
            eprintln!("usage: opass <init|run|analyze|figures|serve|plan|place|trace> ...");
            eprintln!("  opass init <file.json>           write a template scenario");
            eprintln!("  opass run <file.json> [--json] [--trace-dir DIR] [--metrics DIR]");
            eprintln!("  opass analyze --chunks N --replication R --nodes M");
            eprintln!("  {FIGURES_USAGE}");
            eprintln!("  {}", remote::SERVE_USAGE);
            eprintln!("  {}", remote::PLAN_USAGE);
            eprintln!("  {}", remote::PLACE_USAGE);
            eprintln!("  {}", trace::TRACE_USAGE);
            ExitCode::FAILURE
        }
    }
}

fn cmd_init(argv: &[String]) -> ExitCode {
    let Some(path) = argv.first() else {
        eprintln!("usage: opass init <file.json>");
        return ExitCode::FAILURE;
    };
    let json = scenario::template().to_json().to_pretty();
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote template scenario to {path}");
    ExitCode::SUCCESS
}

const RUN_USAGE: &str = "usage: opass run <file.json> [--json] [--trace-dir DIR] [--metrics DIR]";

fn cmd_run(argv: &[String]) -> ExitCode {
    let flags = match Flags::parse(argv, &["--json"], &["--trace-dir", "--metrics"]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{RUN_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Some(path) = flags.positionals().first() else {
        eprintln!("{RUN_USAGE}");
        return ExitCode::FAILURE;
    };
    let as_json = flags.is_set("--json");
    let trace_dir = flags.value("--trace-dir").map(std::path::PathBuf::from);
    let metrics_dir = flags.value("--metrics").map(std::path::PathBuf::from);
    let instrument = metrics_dir.is_some();

    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match ScenarioFile::parse(&content) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let reports: Vec<Result<ExperimentReport, String>> = file
        .experiments
        .iter()
        .map(|e| e.run_with(instrument).map_err(|e| e.to_string()))
        .collect();

    let mut failed = false;
    let mut ok_reports = Vec::new();
    for r in reports {
        match r {
            Ok(rep) => ok_reports.push(rep),
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    if let Some(dir) = &trace_dir {
        if let Err(e) = scenario::dump_traces(dir, &ok_reports) {
            eprintln!("cannot write traces to {}: {e}", dir.display());
            failed = true;
        } else {
            eprintln!("per-read traces written under {}", dir.display());
        }
    }
    if let Some(dir) = &metrics_dir {
        match dump_metrics(dir, &ok_reports) {
            Ok(n) => eprintln!("{n} metrics files written under {}", dir.display()),
            Err(e) => {
                eprintln!("cannot write metrics to {}: {e}", dir.display());
                failed = true;
            }
        }
    }
    if as_json {
        println!("{}", scenario::reports_json(&ok_reports).to_pretty());
    } else {
        println!("scenario: {}", file.name);
        for rep in &ok_reports {
            println!("\n[{}]", rep.experiment);
            println!(
                "  {:<16} {:>8} {:>10} {:>10} {:>11} {:>10}",
                "strategy", "local%", "avg I/O s", "max I/O s", "makespan s", "plan ms"
            );
            for s in &rep.strategies {
                println!(
                    "  {:<16} {:>7.1}% {:>10.3} {:>10.3} {:>11.2} {:>10.2}",
                    s.strategy,
                    s.local_fraction * 100.0,
                    s.avg_io_seconds,
                    s.max_io_seconds,
                    s.makespan_seconds,
                    s.planning_seconds * 1e3,
                );
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes each instrumented run's metrics bundle (summary JSON, event
/// log, per-node time-series and totals CSVs) under `dir`, one file set
/// per (experiment, strategy) prefixed `<i>_<experiment>_<strategy>_`.
fn dump_metrics(dir: &std::path::Path, reports: &[ExperimentReport]) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut written = 0;
    for (i, report) in reports.iter().enumerate() {
        for strat in &report.strategies {
            let Some(metrics) = &strat.metrics else {
                continue;
            };
            let prefix = format!(
                "{}_{}_{}_",
                i,
                report.experiment,
                scenario::sanitize(&strat.strategy)
            );
            written += metrics.write_files(&strat.events, dir, &prefix)?.len();
        }
    }
    Ok(written)
}

fn cmd_analyze(argv: &[String]) -> ExitCode {
    const USAGE: &str = "usage: opass analyze --chunks N --replication R --nodes M";
    let parsed =
        Flags::parse(argv, &[], &["--chunks", "--replication", "--nodes"]).and_then(|flags| {
            Ok((
                flags.value_or("--chunks", 512u64)?,
                flags.value_or("--replication", 3u32)?,
                flags.value_or("--nodes", 128u32)?,
            ))
        });
    let (chunks, replication, nodes) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let params = opass_analysis::ClusterParams::new(chunks, replication, nodes);
    let locality = opass_analysis::LocalityModel::new(params);
    let imbalance = opass_analysis::ImbalanceModel::new(params);
    println!("cluster: {chunks} chunks, {replication}-way replication, {nodes} nodes");
    println!(
        "  P(chunk readable locally)          r/m = {:.4}",
        params.p_local()
    );
    println!(
        "  expected local reads (app-wide)    {:.1} of {chunks}",
        locality.expected_local()
    );
    println!(
        "  P(X > 5) published calibration     {:.2}%",
        locality.published_p_more_than(5) * 100.0
    );
    println!(
        "  expected chunks served per node    {:.2}",
        imbalance.expected_served()
    );
    println!(
        "  nodes serving <= 1 chunk           {:.1}",
        imbalance.expected_nodes_serving_at_most(1)
    );
    println!(
        "  nodes serving >= 8 chunks          {:.1}",
        imbalance.expected_nodes_serving_more_than(7)
    );
    ExitCode::SUCCESS
}

const FIGURES_USAGE: &str = "opass figures [--out DIR] [--seed N] [--list] <figure-id>... | all";

/// Regenerates the paper's figures and tables as CSVs plus summary rows,
/// printed and collected in `<out>/SUMMARY.txt`. Every flag and id is
/// checked before the first figure runs.
fn cmd_figures(argv: &[String]) -> ExitCode {
    let parsed = Flags::parse(argv, &["--list"], &["--out", "--seed"]).and_then(|flags| {
        let seed = flags.value_or("--seed", 0x0A55u64)?;
        let generators = flags
            .positionals()
            .iter()
            .flat_map(|id| match id.as_str() {
                "all" => ALL_FIGURES.to_vec(),
                id => vec![id],
            })
            .map(|id| figure(id).ok_or_else(|| format!("unknown figure id: {id} (try --list)")))
            .collect::<Result<Vec<_>, _>>()?;
        if generators.is_empty() && !flags.is_set("--list") {
            return Err(format!("known ids: {}", ALL_FIGURES.join(", ")));
        }
        Ok((flags, seed, generators))
    });
    let (flags, seed, generators) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: {FIGURES_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if flags.is_set("--list") {
        for id in ALL_FIGURES {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let out = std::path::PathBuf::from(flags.value("--out").unwrap_or("target/figures"));

    let started = std::time::Instant::now();
    let mut summary = String::new();
    for generate in &generators {
        match generate(&out, seed) {
            Ok(report) => {
                let rendered = report.render();
                print!("{rendered}");
                summary.push_str(&rendered);
            }
            Err(e) => {
                eprintln!("cannot write figures under {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
        }
    }
    // The combined summary sits next to the CSVs so EXPERIMENTS.md can be
    // refreshed from one artifact.
    let summary_path = out.join("SUMMARY.txt");
    if let Err(e) =
        std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&summary_path, &summary))
    {
        eprintln!("cannot write {}: {e}", summary_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "regenerated {} figure(s) in {:.1}s; CSVs + SUMMARY.txt under {}",
        generators.len(),
        started.elapsed().as_secs_f64(),
        out.display()
    );
    ExitCode::SUCCESS
}
