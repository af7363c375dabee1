//! `opass-benchmark` — one repeatable benchmark for the planner, the
//! planning service, trace replay and the simulator.
//!
//! ```text
//! opass-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! opass-benchmark --self-test
//! opass-benchmark --contract [BENCHMARK.json]
//! ```
//!
//! One process per `(workload, seed)`. The last line of standard output
//! is the result object; everything else goes to standard error. See
//! `README.md` next to this package for the metric definitions.

mod contract;
mod harness;
mod plan_mix;
mod probes;
mod self_test;
mod serve;
mod sim_sweep;
mod trace_replay;
mod wire;

use contract::{Metrics, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use harness::{
    median, percentile, run_phase, PhaseStats, Tracer, Workload, MIN_LATENCY_SAMPLES, MIN_ROUNDS,
};
use opass_json::Json;
use std::time::{Duration, Instant};

/// Executions of the workload's prepare routine; `setup_s` is their
/// median.
const SETUPS: usize = 3;
/// Untimed rounds before the throughput phase.
const WARM_ROUNDS: usize = 2;
/// Share of its time box a workload with a latency phase gives the
/// throughput phase (9 s of 17); the latency phase gets the rest.
const THROUGHPUT_SHARE: f64 = 9.0 / 17.0;
/// Share of `--seconds` a traced run gives the workload's phases (10 s of
/// 17, the least that still yields 20 rounds and 500 latency samples on
/// every workload); the probes take about as long as the phases.
const TRACED_PHASE_SHARE: f64 = 10.0 / 17.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: opass-benchmark --workload <{}> --seed N --seconds S --trace 0|1\n       \
         opass-benchmark --self-test\n       \
         opass-benchmark --contract [BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || !(1.0..=60.0).contains(&args.seconds) {
        usage();
    }
    args
}

fn prepare(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "plan_mix" => Box::new(plan_mix::PlanMix::prepare(seed)),
        "serve_hot" => Box::new(serve::Hot::prepare(seed)),
        "serve_churn" => Box::new(serve::Churn::prepare(seed)),
        "trace_replay" => Box::new(trace_replay::TraceReplay::prepare(seed)),
        "sim_sweep" => Box::new(sim_sweep::SimSweep::prepare(seed)),
        other => unreachable!("workload {other} passed argument validation"),
    }
}

/// Fails the run (no result line, exit 1) when a phase is too short to
/// report from.
fn require(ok: bool, what: &str) {
    if !ok {
        eprintln!("run invalid: {what}");
        std::process::exit(1);
    }
}

fn run(args: &Args) {
    let mut tr = Tracer::new();

    // Set-up: the prepare routine, SETUPS times back to back; each earlier
    // instance is torn down (untimed) before the next is built, so peak
    // RSS is one instance's. A traced run reports no setup_s and
    // prepares once.
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        if let Some(prev) = w.take() {
            Workload::finish(prev, &mut tr);
        }
        let t0 = Instant::now();
        w = Some(prepare(&args.workload, args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("prepared at least once");
    eprintln!("set-up: {setup_s:.4?} s");

    // A traced run records warm-up too: it is where the harness really
    // calls frame.encode, frame.decode and protocol.decode.
    tr.set_on(args.trace);
    w.warm_up(&mut tr);
    for _ in 0..WARM_ROUNDS {
        let mut out = harness::RoundOut::default();
        w.round(&mut tr, &mut out);
        require(out.failed == 0, "a warm-up op failed verification");
        require(
            w.check_round(&mut tr) == 0,
            "a warm-up round failed the oracle",
        );
    }

    // Closed-loop throughput phase, then (serve_* only) the open-loop
    // latency phase.
    let phase_box = if args.trace {
        args.seconds * TRACED_PHASE_SHARE
    } else {
        args.seconds
    };
    let period = w.latency_period();
    let throughput_box = match period {
        Some(_) => phase_box * THROUGHPUT_SHARE,
        None => phase_box,
    };
    let throughput = run_phase(
        w.as_mut(),
        &mut tr,
        Duration::from_secs_f64(throughput_box),
        args.trace,
        None,
    );
    let latency = period.map(|period| {
        run_phase(
            w.as_mut(),
            &mut tr,
            Duration::from_secs_f64(phase_box - throughput_box),
            args.trace,
            Some(period),
        )
    });
    let (local, total) = w.locality();
    w.finish(&mut tr);

    // The floors under every number the phases produce.
    let samples = latency.as_ref().unwrap_or(&throughput).op_us();
    require(
        throughput.rounds.len() >= MIN_ROUNDS,
        &format!(
            "throughput phase ran {} rounds, needs {MIN_ROUNDS}",
            throughput.rounds.len()
        ),
    );
    require(
        samples.len() >= MIN_LATENCY_SAMPLES,
        &format!(
            "{} latency samples, needs {MIN_LATENCY_SAMPLES}",
            samples.len()
        ),
    );
    let attempted = throughput.ops() + latency.as_ref().map_or(0, PhaseStats::ops);
    let failed = throughput.failed + latency.as_ref().map_or(0, |p| p.failed);
    eprintln!(
        "{}: {} rounds, {} latency samples, {attempted} ops, {failed} failed",
        args.workload,
        throughput.rounds.len(),
        samples.len()
    );
    if let Some(l) = &latency {
        eprintln!(
            "open loop: lag p50 {:.0} us, p99 {:.0} us, max {:.0} us",
            percentile(&l.lag_us, 0.50),
            percentile(&l.lag_us, 0.99),
            percentile(&l.lag_us, 1.0)
        );
    }

    let mut m = Metrics::default();
    m.set("work_per_s", median(&throughput.rates(None)));
    m.set("op_p50_us", percentile(&samples, 0.50));
    m.set("op_p90_us", percentile(&samples, 0.90));
    m.set("op_p99_us", percentile(&samples, 0.99));
    m.set(
        "cpu_us_per_op",
        throughput.cpu_us().0 / throughput.ops() as f64,
    );
    let decls: &[contract::MetricDecl] = if args.trace {
        let (t, l) = (
            throughput.cpu_us(),
            latency.as_ref().map_or((0.0, 0.0), PhaseStats::cpu_us),
        );
        m.set("loadgen.cpu_share", (t.1 + l.1) / (t.0 + l.0));
        m.set(
            "harness.trace_overhead_frac",
            1.0 - median(&throughput.rates(Some(true))) / median(&throughput.rates(Some(false))),
        );
        m.set("host.loadavg_1m", harness::loadavg_1m());
        write_spans(&tr, args);
        probes::run(args.seed, &mut m);
        &PER_LAYER
    } else {
        m.set("setup_s", median(&setup_s));
        m.set("peak_rss_mib", harness::peak_rss_mib());
        m.set("local_frac", local as f64 / total as f64);
        // The time-based numbers of an untraced run are not gated (see
        // "Bounds" in README.md); aa.sh reads them off this line.
        eprintln!("timing: {}", m.to_json(contract::timing()).to_compact());
        &END_TO_END
    };
    let result = Json::object([
        ("correct".to_string(), Json::from(failed == 0)),
        ("attempted".to_string(), Json::from(attempted)),
        ("failed".to_string(), Json::from(failed)),
        ("metrics".to_string(), m.to_json(decls)),
    ]);
    println!("{}", result.to_compact());
}

/// Writes the spans of a traced run under `bench/out/` and prints the
/// per-name self-time table.
fn write_spans(tr: &Tracer, args: &Args) {
    let path = std::path::PathBuf::from(format!(
        "bench/out/spans.{}.{}.tsv",
        args.workload, args.seed
    ));
    match tr.write_tsv(&path) {
        Ok(()) => eprintln!("{} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
    eprintln!(
        "{:<24} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for s in tr.summary() {
        eprintln!(
            "{:<24} {:>9} {:>12.3} {:>12.3}",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--self-test") => std::process::exit(self_test::run()),
        Some("--contract") => {
            let path = argv.get(1).map_or("BENCHMARK.json", String::as_str);
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            match contract::check_file(&text) {
                Ok(report) => print!("{report}"),
                Err(report) => {
                    eprintln!("{report}");
                    std::process::exit(1);
                }
            }
        }
        _ => run(&parse_args(&argv)),
    }
}
