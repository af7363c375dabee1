//! `--self-test`: the harness checks its own instruments before anyone
//! trusts a number it printed.

use crate::contract::{check_tables, valid_name, valid_unit};
use crate::harness::{
    median, percentile, process_cpu_us, rss_mib, thread_cpu_us, Pacer, Tracer, Workload,
};
use crate::wire::{scan_plan, PlanScan};
use crate::{harness, plan_mix, serve, sim_sweep, trace_replay};
use std::time::{Duration, Instant};

/// One check: `Err` carries what it saw.
type Check = fn() -> Result<(), String>;

fn order_statistics() -> Result<(), String> {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let checks = [
        (median(&[3.0, 1.0, 2.0]), 2.0),
        (median(&[4.0, 1.0, 2.0, 3.0]), 2.5),
        (median(&xs), 50.5),
        (percentile(&xs, 0.50), 50.0),
        (percentile(&xs, 0.90), 90.0),
        (percentile(&xs, 0.99), 99.0),
        (percentile(&xs, 1.0), 100.0),
        (percentile(&[7.0], 0.90), 7.0),
    ];
    match checks.iter().find(|(got, want)| got != want) {
        Some((got, want)) => Err(format!("got {got}, want {want}")),
        None => Ok(()),
    }
}

/// Burns 300 ms of wall time on this thread; both CPU readers must see
/// most of it, and no more.
fn cpu_readers() -> Result<(), String> {
    let (p0, t0) = (process_cpu_us(), thread_cpu_us());
    let start = Instant::now();
    let mut x = 0u64;
    while start.elapsed() < Duration::from_millis(300) {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    let (process, thread) = (process_cpu_us() - p0, thread_cpu_us() - t0);
    if !(200_000.0..=310_000.0).contains(&thread) || process < thread {
        return Err(format!(
            "300 ms burn read as {thread} us (thread), {process} us (process)"
        ));
    }
    Ok(())
}

/// Touches 64 MiB; resident set and its high-water mark must follow.
fn rss_readers() -> Result<(), String> {
    const MIB: usize = 64;
    let before = rss_mib();
    let mut block = vec![0u8; MIB << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
    let grown = rss_mib() - before;
    let peak = harness::peak_rss_mib();
    if grown < MIB as f64 * 0.9 || peak < before + grown - 1.0 {
        return Err(format!(
            "64 MiB touched: RSS grew {grown:.1} MiB, peak {peak:.1} MiB"
        ));
    }
    Ok(())
}

/// 100 slots at 2 ms: the schedule must hold its rate and start each
/// slot close to its due time.
fn pacing() -> Result<(), String> {
    let period = Duration::from_millis(2);
    let mut pacer = Pacer::new(period);
    let start = Instant::now();
    for _ in 0..100 {
        pacer.wait();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let lag = median(&pacer.lag_us);
    if !(0.199..=0.210).contains(&elapsed) || lag > 500.0 {
        return Err(format!(
            "100 slots of 2 ms took {elapsed:.4} s, median lag {lag:.0} us"
        ));
    }
    Ok(())
}

/// Same seed, same generated inputs; another seed, other inputs.
fn seeded_inputs() -> Result<(), String> {
    type InputHash = fn(u64) -> u64;
    let hashes: [(&str, InputHash); 4] = [
        ("plan_mix", |seed| {
            plan_mix::PlanMix::prepare(seed).input_hash()
        }),
        ("serve_churn", |seed| {
            let churn = serve::Churn::prepare(seed);
            let hash = churn.input_hash();
            Box::new(churn).finish(&mut Tracer::new());
            hash
        }),
        ("trace_replay", |seed| {
            trace_replay::TraceReplay::prepare(seed).input_hash()
        }),
        ("sim_sweep", |seed| {
            sim_sweep::SimSweep::prepare(seed).input_hash()
        }),
    ];
    for (name, hash) in hashes {
        let (a, again, other) = (hash(1), hash(1), hash(2));
        if a != again || a == other {
            return Err(format!(
                "{name}: seed 1 -> {a:016x} and {again:016x}, seed 2 -> {other:016x}"
            ));
        }
    }
    Ok(())
}

fn names_and_limits() -> Result<(), String> {
    check_tables()?;
    let rejects = ["", "-x", "a b", "a/b", &"x".repeat(65)];
    if let Some(bad) = rejects.iter().find(|n| valid_name(n)) {
        return Err(format!("name rule accepts {bad:?}"));
    }
    if valid_unit("") || valid_unit("a b") || !valid_unit("1/s") || !valid_unit("ns/B") {
        return Err("unit rule misjudges a unit".to_string());
    }
    Ok(())
}

fn reply_scanner() -> Result<(), String> {
    let plan = br#"{"v":1,"type":"plan","dataset":3,"generation":17,"strategy":"opass","seed":9,"owners":[0,63,5],"matched_files":3}"#;
    let want = Some(PlanScan {
        generation: 17,
        owners: 3,
        max_owner: 63,
    });
    let refusal = br#"{"v":1,"type":"overloaded","queue_depth":64}"#;
    if scan_plan(plan) != want || scan_plan(refusal).is_some() {
        return Err("scan_plan misreads a reply".to_string());
    }
    Ok(())
}

fn span_nesting() -> Result<(), String> {
    let mut tr = Tracer::new();
    tr.set_on(true);
    tr.next_request();
    let op = tr.enter("op");
    tr.span("child", || std::thread::sleep(Duration::from_millis(2)));
    tr.exit(op);
    tr.set_on(false);
    tr.span("ignored", || ());
    let summary = tr.summary();
    let total = |name| {
        summary
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.total_ns, s.self_ns))
    };
    let (Some((op_total, op_self)), Some((child_total, _))) = (total("op"), total("child")) else {
        return Err("a span went missing".to_string());
    };
    let nested = tr.spans()[1].parent == 0 && tr.spans()[1].request == 1;
    if !nested || child_total < 2_000_000 || op_self != op_total - child_total || summary.len() != 2
    {
        return Err("parent, request id or self time is wrong".to_string());
    }
    Ok(())
}

/// Runs every check; returns the process exit code.
pub fn run() -> i32 {
    let checks: [(&str, Check); 8] = [
        ("median and percentile helpers", order_statistics),
        ("/proc CPU readers against a 300 ms burn", cpu_readers),
        ("/proc RSS readers against a 64 MiB allocation", rss_readers),
        ("open-loop pacing accuracy", pacing),
        (
            "same seed, same inputs; other seed, other inputs",
            seeded_inputs,
        ),
        ("names, units and count limits", names_and_limits),
        ("plan reply scanner", reply_scanner),
        ("span nesting and self time", span_nesting),
    ];
    let mut failures = 0;
    for (name, check) in checks {
        match check() {
            Ok(()) => println!("ok    {name}"),
            Err(why) => {
                failures += 1;
                println!("FAIL  {name}: {why}");
            }
        }
    }
    i32::from(failures > 0)
}
