//! Integration: the observability subsystem end to end.
//!
//! Three contracts event recording must honor:
//! 1. recording is deterministic — two identical seeded runs record the
//!    same event stream;
//! 2. recording is non-invasive — a recorded run produces the identical
//!    `RunResult` as an unrecorded one, apart from carrying its events;
//! 3. the derived `RunMetrics` reconcile with the trace-level aggregates
//!    the rest of the repo computes from `RunResult`.

use opass_core::runtime::{
    baseline, execute, execute_instrumented, ExecConfig, ProcessPlacement, RunMetrics, RunResult,
    TaskSource,
};
use opass_core::{ClusterSpec, Dynamic, Experiment, Heterogeneous, SingleData, Strategy};
use opass_dfs::{DatasetSpec, DfsConfig, Namenode, Placement};
use opass_workloads::{Task, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_setup(seed: u64) -> (Namenode, Workload, ProcessPlacement) {
    let mut nn = Namenode::new(8, DfsConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = nn.create_dataset(
        &DatasetSpec::uniform("obs", 24, 16 << 20),
        &Placement::Random,
        &mut rng,
    );
    let tasks: Vec<Task> = nn
        .dataset(ds)
        .unwrap()
        .chunks
        .iter()
        .map(|&c| Task::single(c))
        .collect();
    (
        nn,
        Workload::new("obs", tasks),
        ProcessPlacement::one_per_node(8),
    )
}

#[test]
fn event_stream_is_deterministic_across_identical_runs() {
    let capture = || {
        let (nn, workload, placement) = small_setup(77);
        let result = execute_instrumented(
            &nn,
            &workload,
            &placement,
            TaskSource::Static(baseline::rank_interval(24, 8)),
            &ExecConfig {
                seed: 99,
                ..Default::default()
            },
        );
        let events = result.events.clone().expect("recorded");
        (result, events)
    };
    let (result_a, events_a) = capture();
    let (result_b, events_b) = capture();
    assert_eq!(result_a, result_b);
    assert!(!events_a.is_empty(), "a run must emit events");
    assert_eq!(events_a, events_b, "event streams must be identical");
    // Events come out in nondecreasing simulated-time order.
    for pair in events_a.windows(2) {
        assert!(pair[1].at() >= pair[0].at() - 1e-12);
    }
}

#[test]
fn recording_does_not_change_the_run() {
    let (nn, workload, placement) = small_setup(5);
    let config = ExecConfig {
        seed: 31,
        ..Default::default()
    };
    let source = || TaskSource::Static(baseline::rank_interval(24, 8));
    let plain = execute(&nn, &workload, &placement, source(), &config);
    let recorded = execute_instrumented(&nn, &workload, &placement, source(), &config);
    assert!(plain.events.is_none());
    assert!(recorded.events.as_ref().is_some_and(|e| !e.is_empty()));
    assert_eq!(
        plain,
        RunResult {
            events: None,
            ..recorded
        },
        "recording must be invisible"
    );

    // The trait-level instrumented run likewise only *adds* events and
    // metrics.
    let exp = SingleData {
        cluster: ClusterSpec {
            n_nodes: 8,
            seed: 5,
            ..Default::default()
        },
        chunks_per_process: 3,
    };
    let bare = exp.run(Strategy::Opass).unwrap();
    let inst = exp.run_instrumented(Strategy::Opass).unwrap();
    assert!(bare.result.events.is_none() && bare.metrics.is_none());
    assert!(inst.result.events.is_some() && inst.metrics.is_some());
    assert_eq!(bare.result.records, inst.result.records);
    assert_eq!(bare.result.makespan, inst.result.makespan);
    assert_eq!(bare.result.served_bytes, inst.result.served_bytes);
}

fn reconcile(metrics: &RunMetrics, result: &opass_core::runtime::RunResult, n_nodes: usize) {
    // Counters against the trace.
    assert_eq!(metrics.counters.reads, result.records.len());
    assert_eq!(
        metrics.counters.local_reads + metrics.counters.remote_reads,
        metrics.counters.reads
    );
    let local_records = result
        .records
        .iter()
        .filter(|r| r.source == r.reader)
        .count();
    assert_eq!(metrics.counters.local_reads, local_records);
    let total_bytes: u64 = result.records.iter().map(|r| r.bytes).sum();
    assert_eq!(
        metrics.counters.local_bytes + metrics.counters.remote_bytes,
        total_bytes
    );
    // Per-node rollups against the run's served-bytes vector.
    assert_eq!(metrics.per_node.len(), n_nodes);
    for node in &metrics.per_node {
        assert_eq!(
            node.served_bytes, result.served_bytes[node.node],
            "node {}",
            node.node
        );
    }
    let reads_served: usize = metrics.per_node.iter().map(|n| n.reads_served).sum();
    assert_eq!(reads_served, metrics.counters.reads);
}

#[test]
fn metrics_totals_reconcile_with_run_aggregates() {
    let (nn, workload, placement) = small_setup(13);
    let config = ExecConfig {
        seed: 17,
        ..Default::default()
    };
    let result = execute_instrumented(
        &nn,
        &workload,
        &placement,
        TaskSource::Static(baseline::rank_interval(24, 8)),
        &config,
    );
    let metrics = RunMetrics::from_run(&result, &config);
    reconcile(&metrics, &result, 8);
    let events = result.events.as_ref().expect("recorded");
    assert!(!events.is_empty());
    assert_eq!(metrics.events, events.len());
    assert!(metrics.series.n_buckets > 0);

    // Same reconciliation through the experiment trait, including the
    // stealing-heavy dynamic path.
    let exp = Dynamic {
        cluster: ClusterSpec {
            n_nodes: 8,
            seed: 23,
            ..Dynamic::default().cluster
        },
        tasks_per_process: 4,
        ..Default::default()
    };
    let run = exp.run_instrumented(Strategy::OpassGuided).unwrap();
    let metrics = run.metrics.as_ref().expect("instrumented");
    reconcile(metrics, &run.result, 8);
    assert_eq!(metrics.counters.tasks_started, 32);
}

#[test]
fn a_slow_disk_reads_busy_against_its_own_bandwidth() {
    // Every other node's disk runs at half speed, and the weighted plan
    // keeps every disk streaming: a saturated slow disk is as busy as a
    // saturated fast one. Normalised by the base bandwidth it read
    // about half (0.497 against 0.989).
    let exp = Heterogeneous {
        cluster: ClusterSpec {
            n_nodes: 8,
            seed: 3,
            ..Heterogeneous::default().cluster
        },
        ..Heterogeneous::default()
    };
    let metrics = exp
        .run_with(Strategy::OpassWeighted, true)
        .expect("supported")
        .metrics
        .expect("recorded");
    let factors = exp.disk_factors();
    let peak = |slow: bool| -> Vec<f64> {
        metrics
            .series
            .nodes
            .iter()
            .filter(|n| (factors[n.node] < 1.0) == slow)
            .map(|n| n.disk_utilization.iter().copied().fold(0.0, f64::max))
            .collect()
    };
    let (slow, fast) = (peak(true), peak(false));
    assert!(!slow.is_empty() && !fast.is_empty());
    for &u in slow.iter().chain(&fast) {
        assert!(
            (0.9..=1.0 + 1e-9).contains(&u),
            "peak disk utilization {u} (slow {slow:?}, fast {fast:?})"
        );
    }
}

#[test]
fn exported_files_round_trip_the_headline_numbers() {
    let exp = SingleData {
        cluster: ClusterSpec {
            n_nodes: 8,
            seed: 41,
            ..Default::default()
        },
        chunks_per_process: 2,
    };
    let run = exp.run_instrumented(Strategy::Opass).unwrap();
    let metrics = run.metrics.as_ref().expect("instrumented");
    let events = run.result.events.as_deref().expect("recorded");

    let dir = std::env::temp_dir().join("opass-observability-files-test");
    std::fs::create_dir_all(&dir).unwrap();
    let files = metrics.write_files(events, &dir, "t_").unwrap();
    assert_eq!(files.len(), 4);
    let json = std::fs::read_to_string(dir.join("t_metrics.json")).unwrap();
    assert!(json.contains(&format!("\"reads\": {}", metrics.counters.reads)));
    let series = std::fs::read_to_string(dir.join("t_node_series.csv")).unwrap();
    assert!(series.starts_with("t,node,disk_utilization"));
    // One series row per (bucket, node).
    assert_eq!(
        series.lines().count() - 1,
        metrics.series.n_buckets * 8,
        "series rows"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unified_strategy_runs_are_deterministic() {
    let exp = SingleData {
        cluster: ClusterSpec {
            n_nodes: 8,
            seed: 5,
            ..Default::default()
        },
        chunks_per_process: 3,
    };
    let a = exp.run(Strategy::Opass).unwrap();
    let b = exp.run(Strategy::Opass).unwrap();
    assert_eq!(a.result, b.result);
}
