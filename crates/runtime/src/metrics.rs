//! Derived run metrics: counters, per-node time-series, and exporters.
//!
//! [`RunMetrics`] condenses a recorded [`RunResult`] — its read trace
//! and its [`TraceEvent`] stream — into the aggregates the paper's
//! figures are built from: local vs. remote traffic split (the Section
//! III analysis), disk and NIC utilization over time (the contention
//! Figures 3–5 visualize), per-node queue depths, and served-bytes
//! histograms (Figures 1a, 8, 10).
//! Exporters write the whole bundle, with the run's event log, as JSON
//! and flat CSV in the same spirit as [`crate::trace`]: plain data, no
//! I/O until asked.

use crate::exec::ExecConfig;
use crate::trace::{IoRecord, RunResult};
use opass_json::Json;
use opass_simio::{EngineStats, TraceEvent};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Run-level counters derived from the event stream and the read trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunCounters {
    /// Completed chunk reads.
    pub reads: usize,
    /// Reads served from the reader's own node.
    pub local_reads: usize,
    /// Reads served over the network.
    pub remote_reads: usize,
    /// Degraded-mode reads: remote reads that had no local replica to
    /// fall back on, so no policy could have served them locally.
    pub degraded_reads: usize,
    /// Bytes served locally.
    pub local_bytes: u64,
    /// Bytes served remotely.
    pub remote_bytes: u64,
    /// Replicated writes issued.
    pub writes: usize,
    /// Tasks dispatched to processes.
    pub tasks_started: usize,
    /// Tasks a worker stole from another worker's list.
    pub steals: usize,
    /// Max-min fair-share rate recomputations in the engine.
    pub rate_recomputes: usize,
}

impl RunCounters {
    /// Fraction of bytes served locally (1.0 when nothing was read).
    pub fn local_byte_fraction(&self) -> f64 {
        let total = self.local_bytes + self.remote_bytes;
        if total == 0 {
            return 1.0;
        }
        self.local_bytes as f64 / total as f64
    }
}

/// Whole-run totals for one node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeMetrics {
    /// Node index.
    pub node: usize,
    /// Bytes this node's disk served.
    pub served_bytes: u64,
    /// Reads this node served (local + remote).
    pub reads_served: usize,
    /// Of those, reads served to a process on this very node.
    pub local_reads_served: usize,
    /// Peak number of concurrently in-flight reads on this node's disk.
    pub peak_queue_depth: usize,
}

/// Fixed-step time-series for one node. All vectors have
/// [`TimeSeries::n_buckets`] entries; bucket `i` covers
/// `[i*dt, (i+1)*dt)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeSeries {
    /// Node index.
    pub node: usize,
    /// Disk utilization per bucket: bytes streamed divided by what the
    /// base disk bandwidth could stream in `dt`.
    pub disk_utilization: Vec<f64>,
    /// NIC transmit utilization per bucket (remote serving).
    pub nic_out_utilization: Vec<f64>,
    /// NIC receive utilization per bucket (remote reading).
    pub nic_in_utilization: Vec<f64>,
    /// Time-averaged number of reads in flight on this node's disk.
    pub queue_depth: Vec<f64>,
}

/// Per-node time-series over the whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// Bucket width in simulated seconds.
    pub dt: f64,
    /// Number of buckets (uniform across nodes).
    pub n_buckets: usize,
    /// One series per node, indexed by node id.
    pub nodes: Vec<NodeSeries>,
}

/// One bin of the served-bytes histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramBin {
    /// Inclusive lower edge, bytes.
    pub lo: f64,
    /// Exclusive upper edge (inclusive for the last bin), bytes.
    pub hi: f64,
    /// Number of nodes whose served total falls in the bin.
    pub count: usize,
}

/// Everything the observability layer derives from one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Run-level counters.
    pub counters: RunCounters,
    /// Whole-run totals per node.
    pub per_node: Vec<NodeMetrics>,
    /// Fixed-step utilization/queue time-series per node.
    pub series: TimeSeries,
    /// Histogram of served bytes across nodes (Figure 1a's shape).
    pub served_histogram: Vec<HistogramBin>,
    /// Wall-clock the planner spent computing the assignment, seconds.
    /// Zero unless the experiment layer stamps it in.
    pub planning_seconds: f64,
    /// Simulator work counters for the run (copied from
    /// [`RunResult::engine`]): how many recompute passes ran, how many
    /// flow rates actually changed, ETA-heap churn.
    pub engine: EngineStats,
    /// How many events the run recorded (the events themselves stay in
    /// [`RunResult::events`]).
    pub events: usize,
}

/// Default number of time-series buckets.
const DEFAULT_BUCKETS: usize = 60;

/// Default number of served-bytes histogram bins.
const DEFAULT_HISTOGRAM_BINS: usize = 8;

impl RunMetrics {
    /// Derives metrics from a finished (or chained) run, over every node
    /// of its [`RunResult::served_bytes`] and from its recorded events (a
    /// run that recorded none counts none), with the time series cut
    /// into 60 equal buckets over the makespan. `config` is the run's
    /// own: utilization is a fraction of each node's bandwidth under it
    /// (a disk's base bandwidth times its disk factor).
    pub fn from_run(result: &RunResult, config: &ExecConfig) -> RunMetrics {
        Self::from_run_with_buckets(result, config, DEFAULT_BUCKETS)
    }

    /// Like [`RunMetrics::from_run`] with an explicit bucket count.
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets` is zero.
    fn from_run_with_buckets(
        result: &RunResult,
        config: &ExecConfig,
        n_buckets: usize,
    ) -> RunMetrics {
        assert!(n_buckets > 0, "need at least one time-series bucket");
        let n_nodes = result.served_bytes.len();
        let events = result.events.as_deref().unwrap_or_default();
        let counters = count(result, events);
        let per_node = per_node_totals(result, n_nodes);
        let series = build_series(&result.records, n_nodes, result.makespan, config, n_buckets);
        let served_histogram = served_histogram(&result.served_bytes, DEFAULT_HISTOGRAM_BINS);
        RunMetrics {
            counters,
            per_node,
            series,
            served_histogram,
            planning_seconds: 0.0,
            engine: result.engine,
            events: events.len(),
        }
    }

    /// The full metrics bundle as one JSON document (events included).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("counters".to_string(), self.counters_json()),
            (
                "planning_seconds".to_string(),
                Json::from(self.planning_seconds),
            ),
            ("engine".to_string(), self.engine_json()),
            (
                "per_node".to_string(),
                Json::array(self.per_node.iter().map(|n| {
                    Json::object([
                        ("node".to_string(), Json::from(n.node)),
                        ("served_bytes".to_string(), Json::from(n.served_bytes)),
                        ("reads_served".to_string(), Json::from(n.reads_served)),
                        (
                            "local_reads_served".to_string(),
                            Json::from(n.local_reads_served),
                        ),
                        (
                            "peak_queue_depth".to_string(),
                            Json::from(n.peak_queue_depth),
                        ),
                    ])
                })),
            ),
            (
                "series".to_string(),
                Json::object([
                    ("dt".to_string(), Json::from(self.series.dt)),
                    ("n_buckets".to_string(), Json::from(self.series.n_buckets)),
                    (
                        "nodes".to_string(),
                        Json::array(self.series.nodes.iter().map(|n| {
                            Json::object([
                                ("node".to_string(), Json::from(n.node)),
                                (
                                    "disk_utilization".to_string(),
                                    float_array(&n.disk_utilization),
                                ),
                                (
                                    "nic_out_utilization".to_string(),
                                    float_array(&n.nic_out_utilization),
                                ),
                                (
                                    "nic_in_utilization".to_string(),
                                    float_array(&n.nic_in_utilization),
                                ),
                                ("queue_depth".to_string(), float_array(&n.queue_depth)),
                            ])
                        })),
                    ),
                ]),
            ),
            (
                "served_histogram".to_string(),
                Json::array(self.served_histogram.iter().map(|b| {
                    Json::object([
                        ("lo".to_string(), Json::from(b.lo)),
                        ("hi".to_string(), Json::from(b.hi)),
                        ("count".to_string(), Json::from(b.count)),
                    ])
                })),
            ),
            ("events".to_string(), Json::from(self.events as u64)),
        ])
    }

    fn counters_json(&self) -> Json {
        let c = &self.counters;
        Json::object([
            ("reads".to_string(), Json::from(c.reads)),
            ("local_reads".to_string(), Json::from(c.local_reads)),
            ("remote_reads".to_string(), Json::from(c.remote_reads)),
            ("degraded_reads".to_string(), Json::from(c.degraded_reads)),
            ("local_bytes".to_string(), Json::from(c.local_bytes)),
            ("remote_bytes".to_string(), Json::from(c.remote_bytes)),
            (
                "local_byte_fraction".to_string(),
                Json::from(c.local_byte_fraction()),
            ),
            ("writes".to_string(), Json::from(c.writes)),
            ("tasks_started".to_string(), Json::from(c.tasks_started)),
            ("steals".to_string(), Json::from(c.steals)),
            ("rate_recomputes".to_string(), Json::from(c.rate_recomputes)),
        ])
    }

    fn engine_json(&self) -> Json {
        let e = &self.engine;
        Json::object([
            (
                "recompute_passes".to_string(),
                Json::from(e.recompute_passes),
            ),
            (
                "components_recomputed".to_string(),
                Json::from(e.components_recomputed),
            ),
            ("flows_rerated".to_string(), Json::from(e.flows_rerated)),
            ("eta_pushed".to_string(), Json::from(e.eta_pushed)),
            ("eta_stale".to_string(), Json::from(e.eta_stale)),
            ("completions".to_string(), Json::from(e.completions)),
            ("timers_fired".to_string(), Json::from(e.timers_fired)),
        ])
    }

    /// Per-node time-series as CSV: one row per `(bucket, node)` pair with
    /// columns `t,node,disk_utilization,nic_out_utilization,
    /// nic_in_utilization,queue_depth`.
    fn series_csv(&self) -> String {
        let mut out = String::from(
            "t,node,disk_utilization,nic_out_utilization,nic_in_utilization,queue_depth\n",
        );
        for bucket in 0..self.series.n_buckets {
            let t = bucket as f64 * self.series.dt;
            for n in &self.series.nodes {
                out.push_str(&format!(
                    "{:.6},{},{:.6},{:.6},{:.6},{:.6}\n",
                    t,
                    n.node,
                    n.disk_utilization[bucket],
                    n.nic_out_utilization[bucket],
                    n.nic_in_utilization[bucket],
                    n.queue_depth[bucket],
                ));
            }
        }
        out
    }

    /// Per-node totals as CSV.
    fn per_node_csv(&self) -> String {
        let mut out =
            String::from("node,served_bytes,reads_served,local_reads_served,peak_queue_depth\n");
        for n in &self.per_node {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                n.node, n.served_bytes, n.reads_served, n.local_reads_served, n.peak_queue_depth
            ));
        }
        out
    }

    /// Writes the full bundle with the run's `events` into `dir` (created
    /// if missing): `<prefix>metrics.json`, `<prefix>events.json`,
    /// `<prefix>node_series.csv`, `<prefix>per_node.csv`. Returns the
    /// paths written.
    pub fn write_files(
        &self,
        events: &[TraceEvent],
        dir: &Path,
        prefix: &str,
    ) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let mut emit = |name: &str, contents: String| -> std::io::Result<()> {
            let path = dir.join(format!("{prefix}{name}"));
            let mut f = std::fs::File::create(&path)?;
            f.write_all(contents.as_bytes())?;
            written.push(path);
            Ok(())
        };
        emit("metrics.json", self.to_json().to_pretty())?;
        emit("events.json", events_json(events).to_pretty())?;
        emit("node_series.csv", self.series_csv())?;
        emit("per_node.csv", self.per_node_csv())?;
        Ok(written)
    }
}

/// The event stream as a JSON array (the structured event log).
fn events_json(events: &[TraceEvent]) -> Json {
    Json::array(events.iter().map(event_json))
}

/// One event as a flat JSON object (`kind` + `at` + variant fields).
fn event_json(ev: &TraceEvent) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("kind".to_string(), Json::from(ev.kind())),
        ("at".to_string(), Json::from(ev.at())),
    ];
    let mut push = |k: &str, v: Json| pairs.push((k.to_string(), v));
    match *ev {
        TraceEvent::ReadIssued {
            token,
            reader,
            source,
            bytes,
            local,
            ..
        } => {
            push("token", Json::from(token));
            push("reader", Json::from(reader));
            push("source", Json::from(source));
            push("bytes", Json::from(bytes));
            push("local", Json::from(local));
        }
        TraceEvent::WriteIssued {
            token,
            writer,
            targets,
            bytes,
            ..
        } => {
            push("token", Json::from(token));
            push("writer", Json::from(writer));
            push("targets", Json::from(targets));
            push("bytes", Json::from(bytes));
        }
        TraceEvent::FlowFinished { token, bytes, .. } => {
            push("token", Json::from(token));
            push("bytes", Json::from(bytes));
        }
        TraceEvent::RatesRecomputed {
            active_flows,
            min_rate,
            max_rate,
            ..
        } => {
            push("active_flows", Json::from(active_flows));
            push("min_rate", Json::from(min_rate));
            push("max_rate", Json::from(max_rate));
        }
        TraceEvent::TaskStarted { proc, task, .. } => {
            push("proc", Json::from(proc));
            push("task", Json::from(task));
        }
        TraceEvent::ReadFinished {
            proc,
            task,
            chunk,
            source,
            reader,
            bytes,
            local,
            degraded,
            ..
        } => {
            push("proc", Json::from(proc));
            push("task", Json::from(task));
            push("chunk", Json::from(chunk));
            push("source", Json::from(source));
            push("reader", Json::from(reader));
            push("bytes", Json::from(bytes));
            push("local", Json::from(local));
            push("degraded", Json::from(degraded));
        }
        TraceEvent::ComputeStarted { proc, seconds, .. } => {
            push("proc", Json::from(proc));
            push("seconds", Json::from(seconds));
        }
        TraceEvent::ProcFinished { proc, .. } => {
            push("proc", Json::from(proc));
        }
        TraceEvent::TaskStolen {
            thief,
            victim,
            task,
            ..
        } => {
            push("thief", Json::from(thief));
            push("victim", Json::from(victim));
            push("task", Json::from(task));
        }
    }
    Json::object(pairs)
}

fn float_array(xs: &[f64]) -> Json {
    Json::array(xs.iter().map(|&x| Json::from(x)))
}

fn count(result: &RunResult, events: &[TraceEvent]) -> RunCounters {
    let mut c = RunCounters::default();
    for r in &result.records {
        c.reads += 1;
        if r.is_local() {
            c.local_reads += 1;
            c.local_bytes += r.bytes;
        } else {
            c.remote_reads += 1;
            c.remote_bytes += r.bytes;
        }
    }
    for ev in events {
        match ev {
            TraceEvent::ReadFinished { degraded: true, .. } => c.degraded_reads += 1,
            TraceEvent::WriteIssued { .. } => c.writes += 1,
            TraceEvent::TaskStarted { .. } => c.tasks_started += 1,
            TraceEvent::TaskStolen { .. } => c.steals += 1,
            TraceEvent::RatesRecomputed { .. } => c.rate_recomputes += 1,
            _ => {}
        }
    }
    c
}

fn per_node_totals(result: &RunResult, n_nodes: usize) -> Vec<NodeMetrics> {
    let mut nodes: Vec<NodeMetrics> = (0..n_nodes)
        .map(|node| NodeMetrics {
            node,
            served_bytes: result.served_bytes.get(node).copied().unwrap_or(0),
            ..Default::default()
        })
        .collect();
    for r in &result.records {
        let n = &mut nodes[r.source.index()];
        n.reads_served += 1;
        if r.is_local() {
            n.local_reads_served += 1;
        }
    }
    // Peak queue depth per node: sweep read intervals on each source disk.
    let mut edges: Vec<(f64, usize, i32)> = Vec::with_capacity(result.records.len() * 2);
    for r in &result.records {
        edges.push((r.issued_at, r.source.index(), 1));
        edges.push((r.completed_at, r.source.index(), -1));
    }
    // Ends before starts at equal times so back-to-back reads don't stack.
    edges.sort_by(|a, b| (a.0, a.2).partial_cmp(&(b.0, b.2)).expect("finite times"));
    let mut depth = vec![0i32; n_nodes];
    for (_, node, delta) in edges {
        depth[node] += delta;
        nodes[node].peak_queue_depth = nodes[node].peak_queue_depth.max(depth[node] as usize);
    }
    nodes
}

fn build_series(
    records: &[IoRecord],
    n_nodes: usize,
    makespan: f64,
    config: &ExecConfig,
    n_buckets: usize,
) -> TimeSeries {
    let dt = if makespan > 0.0 {
        makespan / n_buckets as f64
    } else {
        1.0
    };
    let mut nodes: Vec<NodeSeries> = (0..n_nodes)
        .map(|node| NodeSeries {
            node,
            disk_utilization: vec![0.0; n_buckets],
            nic_out_utilization: vec![0.0; n_buckets],
            nic_in_utilization: vec![0.0; n_buckets],
            queue_depth: vec![0.0; n_buckets],
        })
        .collect();
    for r in records {
        let (t0, t1) = (r.issued_at, r.completed_at);
        let duration = (t1 - t0).max(0.0);
        if duration <= 0.0 {
            // Attribute instantaneous reads wholly to their bucket.
            let b = bucket_of(t0, dt, n_buckets);
            nodes[r.source.index()].disk_utilization[b] += r.bytes as f64;
            if !r.is_local() {
                nodes[r.source.index()].nic_out_utilization[b] += r.bytes as f64;
                nodes[r.reader.index()].nic_in_utilization[b] += r.bytes as f64;
            }
            continue;
        }
        let rate = r.bytes as f64 / duration;
        let (b0, b1) = (bucket_of(t0, dt, n_buckets), bucket_of(t1, dt, n_buckets));
        for b in b0..=b1 {
            let lo = (b as f64 * dt).max(t0);
            let hi = ((b + 1) as f64 * dt).min(t1);
            let overlap = (hi - lo).max(0.0);
            if overlap <= 0.0 {
                continue;
            }
            let bytes_here = rate * overlap;
            let src = &mut nodes[r.source.index()];
            src.disk_utilization[b] += bytes_here;
            src.queue_depth[b] += overlap / dt;
            if !r.is_local() {
                src.nic_out_utilization[b] += bytes_here;
                nodes[r.reader.index()].nic_in_utilization[b] += bytes_here;
            }
        }
    }
    // Normalize byte totals into utilization fractions of each node's
    // bandwidth: its disk's is the base times its disk factor.
    let io = &config.io;
    let nic_cap = io.nic_bandwidth * dt;
    for n in &mut nodes {
        let factor = config.disk_factors.as_ref().map_or(1.0, |f| f[n.node]);
        let disk_cap = io.disk_bandwidth * factor * dt;
        for u in &mut n.disk_utilization {
            *u /= disk_cap;
        }
        for u in &mut n.nic_out_utilization {
            *u /= nic_cap;
        }
        for u in &mut n.nic_in_utilization {
            *u /= nic_cap;
        }
    }
    TimeSeries {
        dt,
        n_buckets,
        nodes,
    }
}

fn bucket_of(t: f64, dt: f64, n_buckets: usize) -> usize {
    ((t / dt).floor() as usize).min(n_buckets.saturating_sub(1))
}

fn served_histogram(served_bytes: &[u64], bins: usize) -> Vec<HistogramBin> {
    let max = served_bytes.iter().copied().max().unwrap_or(0) as f64;
    if served_bytes.is_empty() || max <= 0.0 {
        return vec![HistogramBin {
            lo: 0.0,
            hi: 0.0,
            count: served_bytes.len(),
        }];
    }
    let width = max / bins as f64;
    let mut out: Vec<HistogramBin> = (0..bins)
        .map(|i| HistogramBin {
            lo: i as f64 * width,
            hi: (i + 1) as f64 * width,
            count: 0,
        })
        .collect();
    for &b in served_bytes {
        let i = ((b as f64 / width).floor() as usize).min(bins - 1);
        out[i].count += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_dfs::{ChunkId, NodeId};

    fn record(proc: usize, source: u32, reader: u32, start: f64, end: f64, bytes: u64) -> IoRecord {
        IoRecord {
            proc,
            task: proc,
            chunk: ChunkId(proc as u64),
            source: NodeId(source),
            reader: NodeId(reader),
            bytes,
            issued_at: start,
            completed_at: end,
        }
    }

    fn sample_result() -> RunResult {
        RunResult {
            records: vec![
                record(0, 0, 0, 0.0, 1.0, 100),
                record(1, 0, 1, 0.0, 2.0, 100),
                record(2, 2, 2, 1.0, 2.0, 50),
            ],
            makespan: 2.0,
            served_bytes: vec![200, 0, 50],
            events: None,
            engine: EngineStats::default(),
        }
    }

    #[test]
    fn counters_reconcile_with_trace() {
        let mut result = sample_result();
        result.events = Some(vec![
            TraceEvent::TaskStarted {
                at: 0.0,
                proc: 0,
                task: 0,
            },
            TraceEvent::ReadFinished {
                at: 2.0,
                proc: 1,
                task: 1,
                chunk: 1,
                source: 0,
                reader: 1,
                bytes: 100,
                local: false,
                degraded: true,
            },
            TraceEvent::RatesRecomputed {
                at: 0.0,
                active_flows: 2,
                min_rate: 1.0,
                max_rate: 2.0,
            },
            TraceEvent::TaskStolen {
                at: 1.0,
                thief: 2,
                victim: 0,
                task: 2,
            },
        ]);
        let m = RunMetrics::from_run(&result, &ExecConfig::default());
        assert_eq!(m.events, 4);
        assert_eq!(m.counters.reads, 3);
        assert_eq!(m.counters.local_reads, 2);
        assert_eq!(m.counters.remote_reads, 1);
        assert_eq!(m.counters.degraded_reads, 1);
        assert_eq!(m.counters.local_bytes, 150);
        assert_eq!(m.counters.remote_bytes, 100);
        assert_eq!(m.counters.tasks_started, 1);
        assert_eq!(m.counters.steals, 1);
        assert_eq!(m.counters.rate_recomputes, 1);
        assert!((m.counters.local_byte_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn per_node_totals_and_queue_depth() {
        let result = sample_result();
        let m = RunMetrics::from_run(&result, &ExecConfig::default());
        assert_eq!(m.events, 0, "an unrecorded run counts no events");
        assert_eq!(m.per_node.len(), 3);
        assert_eq!(m.per_node[0].served_bytes, 200);
        assert_eq!(m.per_node[0].reads_served, 2);
        assert_eq!(m.per_node[0].local_reads_served, 1);
        // Two overlapping reads on node 0's disk in [0, 1).
        assert_eq!(m.per_node[0].peak_queue_depth, 2);
        assert_eq!(m.per_node[1].reads_served, 0);
        assert_eq!(m.per_node[2].peak_queue_depth, 1);
    }

    #[test]
    fn series_conserves_bytes() {
        let result = sample_result();
        let io = ExecConfig::default().io;
        let m = RunMetrics::from_run_with_buckets(&result, &ExecConfig::default(), 10);
        assert_eq!(m.series.n_buckets, 10);
        let dt = m.series.dt;
        // Total bytes re-derived from disk utilization must equal served.
        for node in 0..3 {
            let total: f64 = m.series.nodes[node]
                .disk_utilization
                .iter()
                .map(|u| u * io.disk_bandwidth * dt)
                .sum();
            assert!(
                (total - result.served_bytes[node] as f64).abs() < 1e-6,
                "node {node}: {total} vs {}",
                result.served_bytes[node]
            );
        }
        // Queue depth integrates to total busy time on node 0: reads of
        // 1 s and 2 s overlap -> integral 3 s.
        let qd_integral: f64 = m.series.nodes[0].queue_depth.iter().map(|q| q * dt).sum();
        assert!((qd_integral - 3.0).abs() < 1e-9, "integral {qd_integral}");
    }

    #[test]
    fn histogram_covers_all_nodes() {
        let h = served_histogram(&[0, 10, 20, 40], 4);
        let total: usize = h.iter().map(|b| b.count).sum();
        assert_eq!(total, 4);
        assert_eq!(h.last().unwrap().count, 1, "max lands in the last bin");
        // Degenerate all-zero case: one bin holding everything.
        let z = served_histogram(&[0, 0], 4);
        assert_eq!(z.len(), 1);
        assert_eq!(z[0].count, 2);
    }

    #[test]
    fn exporters_produce_parseable_output() {
        let mut result = sample_result();
        let events = vec![TraceEvent::ProcFinished { at: 2.0, proc: 0 }];
        result.events = Some(events.clone());
        let m = RunMetrics::from_run(&result, &ExecConfig::default());
        let doc = Json::parse(&m.to_json().to_pretty()).expect("metrics JSON parses");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("reads"))
                .and_then(Json::as_u64),
            Some(3)
        );
        let evs = Json::parse(&events_json(&events).to_compact()).expect("events JSON parses");
        let arr = evs.as_array().expect("array");
        assert_eq!(arr.len(), 1);
        assert_eq!(
            arr[0].get("kind").and_then(Json::as_str),
            Some("proc_finished")
        );
        let csv = m.series_csv();
        assert!(csv.starts_with("t,node,disk_utilization"));
        // Header + 60 buckets x 3 nodes.
        assert_eq!(csv.lines().count(), 1 + 60 * 3);
        assert_eq!(m.per_node_csv().lines().count(), 1 + 3);
    }

    #[test]
    fn write_files_round_trips() {
        let dir = std::env::temp_dir().join(format!("opass-metrics-test-{}", std::process::id()));
        let m = RunMetrics::from_run(&sample_result(), &ExecConfig::default());
        let written = m.write_files(&[], &dir, "demo_").expect("write ok");
        assert_eq!(written.len(), 4);
        for p in &written {
            assert!(p.exists(), "{p:?} missing");
        }
        let text = std::fs::read_to_string(&written[0]).unwrap();
        assert!(Json::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
