//! What the benchmark promises: the workloads, the metric names with
//! their units and directions, and the bounds. `/BENCHMARK.json` declares
//! the same tables; `--contract` fails when the two disagree, so the file
//! and the binary cannot drift apart silently.

use opass_json::Json;

/// Seconds one run measures (`--seconds`): the phases of an untraced
/// run, phases plus probes of a traced one.
pub const RUN_SECONDS: u64 = 17;

/// The command `/BENCHMARK.json` must name.
pub const COMMAND: [&str; 2] = ["bash", "bench/run.sh"];

/// The directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["bench"];

/// The five workloads.
pub const WORKLOADS: [&str; 5] = [
    "plan_mix",
    "serve_hot",
    "serve_churn",
    "trace_replay",
    "sim_sweep",
];

/// A metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDecl {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which are not gated).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The end-to-end metrics, the same on every workload: the ones that
/// repeat on the reference host. Issue 15's rule is that a bound is at
/// least twice the largest gap between two sets of runs of one binary
/// and at most 0.10, and that a metric which cannot hold that is not
/// gated; the four time-based metrics of the phases cannot (see "Bounds"
/// in README.md) and head [`PER_LAYER`] instead. `setup_s` cannot either,
/// but the benchmark contract requires it among the gated metrics, so it
/// alone carries the contract's cap.
pub const END_TO_END: [MetricDecl; 3] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.05),
    e2e("local_frac", "ratio", "higher", 0.005),
];

/// The largest bound a gated metric other than `setup_s` may carry.
pub const MAX_BOUND: f64 = 0.10;

/// How many entries at the head of [`PER_LAYER`] are the time-based
/// metrics of the workload's own phases ([`timing`]).
const TIMING_LEN: usize = 5;

/// The time-based metrics of the workload's phases. Every run measures
/// them; an untraced run prints them on standard error only.
pub fn timing() -> &'static [MetricDecl] {
    &PER_LAYER[..TIMING_LEN]
}

/// The per-layer metrics of the traced run, grouped by layer.
pub const PER_LAYER: [MetricDecl; 68] = [
    // the workload's phases, as issue 15 defines them
    layer("work_per_s", "1/s", "higher"),
    layer("op_p50_us", "us", "lower"),
    layer("op_p90_us", "us", "lower"),
    layer("op_p99_us", "us", "lower"),
    layer("cpu_us_per_op", "us", "lower"),
    // opass-json, on a recorded 1280-owner reply body (one long number
    // array) and on a recorded 1280-entry layout reply (many short keys)
    layer("json.parse_ns_per_byte", "ns/B", "lower"),
    layer("json.encode_ns_per_byte", "ns/B", "lower"),
    layer("json.parse_layout_ns_per_byte", "ns/B", "lower"),
    // serve::frame, serve::protocol
    layer("serve.frame.reply_bytes", "B", "lower"),
    layer("serve.frame.encode_ns_per_byte", "ns/B", "lower"),
    layer("serve.frame.decode_ns_per_byte", "ns/B", "lower"),
    layer("serve.protocol.request_decode_us", "us", "lower"),
    layer("serve.protocol.reply_encode_us", "us", "lower"),
    layer("serve.protocol.reply_decode_us", "us", "lower"),
    // serve::reactor / conn, over loopback
    layer("serve.wire.ping_rtt_p50_us", "us", "lower"),
    layer("serve.wire.idle_ping_rtt_p50_us", "us", "lower"),
    layer("serve.wire.hit_rtt_p50_us", "us", "lower"),
    layer("serve.wire.burst8_ms", "ms", "lower"),
    layer("serve.wire.sliding_req_per_s", "1/s", "higher"),
    layer("serve.wire.idle_conn_cost_ns", "ns", "lower"),
    // serve::planning / cache / pool, from `stats`
    layer("serve.cold_fill_plans_per_s", "1/s", "higher"),
    layer("serve.cache.hit_ratio", "ratio", "higher"),
    layer("serve.flight.coalesced_per_step", "count", "higher"),
    layer("serve.plan.repaired_per_step", "count", "lower"),
    layer("serve.plan.cold_per_round", "count", "lower"),
    layer("serve.pool.shed", "count", "lower"),
    layer("serve.stats.repair_mean_us", "us", "lower"),
    layer("serve.stats.cold_plan_mean_us", "us", "lower"),
    // serve::spec (World)
    layer("serve.world.build_ms", "ms", "lower"),
    layer("serve.world.capture_layout_us", "us", "lower"),
    layer("serve.world.invalidate_delta_us", "us", "lower"),
    // dfs
    layer("dfs.build_namenode_ms", "ms", "lower"),
    layer("dfs.apply_delta_us", "us", "lower"),
    layer("dfs.apply_migrations_us", "us", "lower"),
    // matching
    layer("matching.single_maxflow_us", "us", "lower"),
    layer("matching.repair_batch_us", "us", "lower"),
    layer("matching.guided_lists_us", "us", "lower"),
    layer("matching.propose_moves_us", "us", "lower"),
    // core: per-class medians of the plan_mix ops
    layer("core.plan_single_us", "us", "lower"),
    layer("core.session_start_us", "us", "lower"),
    layer("core.replan_us", "us", "lower"),
    layer("core.plan_multi_us", "us", "lower"),
    layer("core.plan_dynamic_us", "us", "lower"),
    layer("core.place_run_us", "us", "lower"),
    // trace
    layer("trace.gen_ns_per_rec", "ns", "lower"),
    layer("trace.write_text_ns_per_rec", "ns", "lower"),
    layer("trace.parse_text_ns_per_rec", "ns", "lower"),
    layer("trace.parse_binary_ns_per_rec", "ns", "lower"),
    // serve::replay
    layer("serve.replay.ns_per_rec", "ns", "lower"),
    layer("serve.replay.migrations_per_mrec", "count", "lower"),
    layer("serve.replay.batches_per_op", "count", "lower"),
    // simio, runtime, workloads, core::experiment
    layer("simio.events_per_s", "1/s", "higher"),
    layer("simio.recompute_passes_per_completion", "count", "lower"),
    layer("simio.flows_rerated_per_completion", "count", "lower"),
    layer("simio.eta_stale_ratio", "ratio", "lower"),
    layer("runtime.execute_us", "us", "lower"),
    layer("core.experiment_run_us", "us", "lower"),
    layer("workloads.generate_us", "us", "lower"),
    layer("sim.io_speedup.single_data", "ratio", "higher"),
    layer("sim.io_speedup.multi_data", "ratio", "higher"),
    layer("sim.io_speedup.dynamic", "ratio", "higher"),
    layer("sim.io_speedup.paraview", "ratio", "higher"),
    // simulated seconds, not wall time: repeats exactly for one seed
    layer("sim.makespan_s.single_data", "sim_s", "lower"),
    // the harness itself
    layer("paced.cpu_us_per_op", "us", "lower"),
    layer("loadgen.cpu_share", "ratio", "lower"),
    layer("loadgen.lag_p99_us", "us", "lower"),
    layer("harness.trace_overhead_frac", "ratio", "lower"),
    layer("host.loadavg_1m", "count", "lower"),
];

/// Measured values keyed by metric name, in declaration order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `value` for the declared metric `name`. Panics on an
    /// undeclared name, a second value, or a non-finite value: each is a
    /// bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((decl.name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The result line's `metrics` object for `decls`; panics if one of
    /// them was never measured.
    pub fn to_json(&self, decls: &[MetricDecl]) -> Json {
        Json::object(decls.iter().map(|d| {
            let value = self
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            (
                d.name.to_string(),
                Json::object([
                    ("value".to_string(), Json::from(value)),
                    ("unit".to_string(), Json::from(d.unit)),
                ]),
            )
        }))
    }
}

/// Whether `name` fits the contract's name rule.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` fits the contract's unit rule.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Checks the binary's own tables against the contract's limits.
pub fn check_tables() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|d| d.name))
        .chain(PER_LAYER.iter().map(|d| d.name))
    {
        if !valid_name(name) {
            return Err(format!("name {name:?} breaks the name rule"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} is used twice"));
        }
    }
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        if !valid_unit(d.unit) {
            return Err(format!(
                "unit {:?} of {} breaks the unit rule",
                d.unit, d.name
            ));
        }
        if d.better != "higher" && d.better != "lower" {
            return Err(format!("{}: better must be higher or lower", d.name));
        }
    }
    if !(2..=8).contains(&WORKLOADS.len())
        || !(1..=16).contains(&END_TO_END.len())
        || !(1..=128).contains(&PER_LAYER.len())
        || !(1..=60).contains(&RUN_SECONDS)
    {
        return Err("a table is outside the contract's count limits".to_string());
    }
    for d in &END_TO_END {
        let cap = if d.name == "setup_s" { 0.25 } else { MAX_BOUND };
        if d.bound <= 0.0 || d.bound > cap {
            return Err(format!("bound of {} must lie in (0, {cap}]", d.name));
        }
    }
    if !END_TO_END
        .iter()
        .any(|d| (d.name, d.unit, d.better) == ("setup_s", "s", "lower"))
    {
        return Err("setup_s (s, lower) must be an end-to-end metric".to_string());
    }
    Ok(())
}

fn strings(v: Option<&Json>) -> Option<Vec<&str>> {
    v?.as_array()?.iter().map(Json::as_str).collect()
}

fn decls(v: Option<&Json>, with_bound: bool) -> Result<Vec<(String, String, String, f64)>, String> {
    let items = v
        .and_then(Json::as_array)
        .ok_or("metric list missing or not an array")?;
    items
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("metric entry lacks string {k:?}"))
            };
            let bound = match (with_bound, m.get("bound").and_then(Json::as_f64)) {
                (true, Some(b)) => b,
                (true, None) => return Err("end-to-end metric lacks a bound".to_string()),
                (false, _) => 0.0,
            };
            let keys = m.as_object().map_or(0, <[_]>::len);
            if keys != 3 + usize::from(with_bound) {
                return Err(format!("metric entry {:?} has extra keys", text("name")?));
            }
            Ok((text("name")?, text("unit")?, text("better")?, bound))
        })
        .collect()
}

/// Prints what `file` (the text of `/BENCHMARK.json`) declares and
/// compares it with the binary's tables.
pub fn check_file(text: &str) -> Result<String, String> {
    check_tables()?;
    let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json does not parse: {e}"))?;
    let mut report = String::new();
    let mut diffs = Vec::new();

    let command = strings(json.get("command")).ok_or("command missing")?;
    report.push_str(&format!("command      {}\n", command.join(" ")));
    if command != COMMAND {
        diffs.push(format!("command: binary expects {COMMAND:?}"));
    }
    let paths = strings(json.get("paths")).ok_or("paths missing")?;
    report.push_str(&format!("paths        {}\n", paths.join(" ")));
    if paths != PATHS {
        diffs.push(format!("paths: binary expects {PATHS:?}"));
    }
    let seconds = json.get("run_seconds").and_then(Json::as_u64);
    report.push_str(&format!("run_seconds  {seconds:?}\n"));
    if seconds != Some(RUN_SECONDS) {
        diffs.push(format!("run_seconds: binary expects {RUN_SECONDS}"));
    }

    let workloads = json
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("workloads missing")?;
    let mut names = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload lacks a name")?;
        let why = w
            .get("why")
            .and_then(Json::as_str)
            .ok_or("workload lacks a why")?;
        if why.len() > 200 || why.contains('\n') {
            diffs.push(format!(
                "workload {name}: why must be one line of at most 200 characters"
            ));
        }
        report.push_str(&format!("workload     {name}: {why}\n"));
        names.push(name);
    }
    if names != WORKLOADS {
        diffs.push(format!("workloads: binary runs {WORKLOADS:?}"));
    }

    for (key, table, with_bound) in [
        ("end_to_end", &END_TO_END[..], true),
        ("per_layer", &PER_LAYER[..], false),
    ] {
        let declared = decls(json.get(key), with_bound).map_err(|e| format!("{key}: {e}"))?;
        for (name, unit, better, bound) in &declared {
            report.push_str(&format!("{key:<12} {name} [{unit}] {better}"));
            if with_bound {
                report.push_str(&format!(" bound {bound}"));
            }
            report.push('\n');
        }
        let same = declared.len() == table.len()
            && declared.iter().zip(table).all(|((n, u, b, bound), d)| {
                n == d.name && u == d.unit && b == d.better && *bound == d.bound
            });
        if !same {
            diffs.push(format!(
                "{key}: names, units, directions, bounds or order differ from the binary's table"
            ));
        }
    }
    let top_keys = json.as_object().map_or(0, <[_]>::len);
    if top_keys != 6 {
        diffs.push(format!(
            "BENCHMARK.json has {top_keys} top-level keys, the contract has 6"
        ));
    }
    if text.len() > 64 << 10 {
        diffs.push("BENCHMARK.json is larger than 64 KiB".to_string());
    }
    if diffs.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\nDISAGREEMENT:\n  {}", diffs.join("\n  ")))
    }
}
