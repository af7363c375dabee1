//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * `ablate-replication` — Opass's benefit as a function of the
//!   replication factor `r` (locality probability scales with `r/m`).
//! * `ablate-seek` — contention tails with and without the disk
//!   seek-degradation model (is the Figure 7 tail a disk effect?).
//! * `ablate-fill` — random vs least-loaded fill of unmatched files on a
//!   cluster skewed by node addition.
//! * `ablate-steal` — the paper's most-colocated steal vs locality-oblivious
//!   head stealing in the dynamic scheduler.

use crate::report::{mb, secs, FigureReport};
use opass_core::dfs::{DfsConfig, Namenode, Placement};
use opass_core::matching::{FillPolicy, GuidedScheduler, StealPolicy};
use opass_core::runtime::{
    baseline, execute, execute_bulk_synchronous, ExecConfig, ProcessPlacement, TaskSource,
};
use opass_core::simio::IoParams;
use opass_core::workloads::{single as single_wl, SingleDataConfig};
use opass_core::{
    ClusterSpec, Dynamic, Experiment, OpassPlanner, PlanRequest, SingleData, Strategy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::Path;

/// Replication-factor sweep.
pub(crate) fn ablate_replication(out: &Path, seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("ablate-replication");
    let mut csv = report.csv(
        out,
        "ablate_replication",
        &["r", "strategy", "local_pct", "avg_io_s"],
    )?;

    for r in [1u32, 2, 3, 5] {
        for strategy in [Strategy::RankInterval, Strategy::Opass] {
            let experiment = SingleData {
                cluster: ClusterSpec {
                    n_nodes: 32,
                    replication: r,
                    seed: seed ^ u64::from(r),
                    ..Default::default()
                },
                chunks_per_process: 5,
            };
            let run = experiment.run(strategy).expect("single-data strategy");
            csv.row(&[
                r.to_string(),
                strategy.label(),
                format!("{:.1}", run.result.local_fraction() * 100.0),
                secs(run.result.io_summary().mean),
            ])?;
            if strategy == Strategy::Opass {
                report.line(format!(
                    "r={r}: Opass locality {:.0}%, avg I/O {} s",
                    run.result.local_fraction() * 100.0,
                    secs(run.result.io_summary().mean)
                ));
            }
        }
    }
    report.line("higher replication -> more matching freedom -> higher locality");
    Ok(report)
}

/// Seek-degradation on/off comparison.
pub(crate) fn ablate_seek(out: &Path, seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("ablate-seek");
    let mut csv = report.csv(
        out,
        "ablate_seek_model",
        &["seek_model", "strategy", "avg_io_s", "max_io_s"],
    )?;

    for (model_name, io) in [
        ("with_seek_degradation", IoParams::marmot()),
        ("constant_disk", IoParams::marmot().no_seek_degradation()),
    ] {
        for strategy in [Strategy::RankInterval, Strategy::Opass] {
            let experiment = SingleData {
                cluster: ClusterSpec {
                    n_nodes: 64,
                    io,
                    seed,
                    ..Default::default()
                },
                chunks_per_process: 10,
            };
            let run = experiment.run(strategy).expect("single-data strategy");
            let s = run.result.io_summary();
            csv.row(&[
                model_name.into(),
                strategy.label(),
                secs(s.mean),
                secs(s.max),
            ])?;
            if strategy == Strategy::RankInterval {
                report.line(format!(
                    "{model_name}: baseline avg {} s max {} s",
                    secs(s.mean),
                    secs(s.max)
                ));
            }
        }
    }
    report.line(
        "the long tail shrinks without seek degradation: the contention tail is a disk effect",
    );
    Ok(report)
}

/// Builds a cluster skewed by post-write node addition and runs both fill
/// policies on it.
pub(crate) fn ablate_fill(out: &Path, seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("ablate-fill");
    let mut csv = report.csv(
        out,
        "ablate_fill_policy",
        &[
            "fill",
            "matched_files",
            "filled_files",
            "makespan_s",
            "max_served_mb",
        ],
    )?;

    // 48 storage nodes get all the data; 16 empty nodes join afterwards.
    let mut nn = Namenode::new(48, DfsConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SingleDataConfig {
        n_procs: 64,
        chunks_per_process: 5,
        chunk_size: 64 << 20,
    };
    let (_, workload) = single_wl::generate(&mut nn, &cfg, &Placement::Random, &mut rng);
    for _ in 0..16 {
        nn.add_node();
    }
    let placement = ProcessPlacement::one_per_node(64);

    for fill in [FillPolicy::Random, FillPolicy::LeastLoaded] {
        let planner = OpassPlanner {
            fill,
            ..Default::default()
        };
        let plan = planner
            .plan(&PlanRequest::single(&nn, &workload, &placement).seed(seed ^ 0xF1))
            .into_single()
            .expect("single plan");
        let result = execute(
            &nn,
            &workload,
            &placement,
            TaskSource::Static(plan.assignment),
            &ExecConfig {
                seed: seed ^ 0xF2,
                ..Default::default()
            },
        );
        let name = match fill {
            FillPolicy::Random => "random",
            FillPolicy::LeastLoaded => "least_loaded",
        };
        let served = result.served_summary(64);
        csv.row(&[
            name.into(),
            plan.matched_files.to_string(),
            plan.filled_files.to_string(),
            secs(result.makespan),
            mb(served.max as u64),
        ])?;
        report.line(format!(
            "{name}: matched {} / filled {} files, makespan {} s",
            plan.matched_files,
            plan.filled_files,
            secs(result.makespan)
        ));
    }
    report.line("16 of 64 nodes joined after the write: the new nodes hold no data, so fills must read remotely either way");
    Ok(report)
}

/// Execution-model comparison: free-running SPMD vs bulk-synchronous
/// (barrier after every task round). BSP synchronizes the request bursts —
/// the paper's motivation scenario — and pays for stragglers every round.
pub(crate) fn ablate_barrier(out: &Path, seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("ablate-barrier");
    let mut csv = report.csv(
        out,
        "ablate_barrier_mode",
        &["mode", "strategy", "avg_io_s", "makespan_s"],
    )?;

    let n_nodes = 32;
    let (nn, workload, placement) = SingleData {
        cluster: ClusterSpec {
            n_nodes,
            seed,
            ..Default::default()
        },
        chunks_per_process: 6,
    }
    .build();
    let exec_config = ExecConfig {
        seed: seed ^ 0xBA,
        ..Default::default()
    };

    for (sname, assignment) in [
        (
            "without_opass",
            baseline::rank_interval(workload.len(), n_nodes),
        ),
        (
            "with_opass",
            OpassPlanner::default()
                .plan(&PlanRequest::single(&nn, &workload, &placement).seed(seed ^ 0xBB))
                .into_single()
                .expect("single plan")
                .assignment,
        ),
    ] {
        let free = execute(
            &nn,
            &workload,
            &placement,
            TaskSource::Static(assignment.clone()),
            &exec_config,
        );
        let bsp = execute_bulk_synchronous(&nn, &workload, &placement, &assignment, &exec_config);
        for (mode, run) in [("free_running", &free), ("bulk_synchronous", &bsp)] {
            csv.row(&[
                mode.into(),
                sname.into(),
                secs(run.io_summary().mean),
                secs(run.makespan),
            ])?;
            report.line(format!(
                "{mode}/{sname}: avg I/O {} s, makespan {} s",
                secs(run.io_summary().mean),
                secs(run.makespan)
            ));
        }
    }
    report.line("barriers amplify the baseline's straggler cost; with Opass every round finishes together anyway");
    Ok(report)
}

/// Steal-policy comparison in the dynamic scheduler.
pub(crate) fn ablate_steal(out: &Path, seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("ablate-steal");
    let mut csv = report.csv(
        out,
        "ablate_steal_policy",
        &["steal", "local_pct", "avg_io_s", "makespan_s"],
    )?;

    // Irregular compute so stealing actually happens.
    let (nn, workload, placement) = Dynamic {
        cluster: ClusterSpec {
            n_nodes: 32,
            seed,
            ..Default::default()
        },
        tasks_per_process: 8,
        compute_median: 0.5,
        compute_sigma: 1.2,
    }
    .build();
    let planner = OpassPlanner::default();
    let plan = planner
        .plan(&PlanRequest::single(&nn, &workload, &placement).seed(seed ^ 0x57))
        .into_single()
        .expect("single plan");
    let values = opass_core::build_matching_values(&nn, &workload, &placement);

    for policy in [StealPolicy::MostColocated, StealPolicy::Head] {
        let sched = GuidedScheduler::with_steal_policy(&plan.assignment, values.clone(), policy);
        let result = execute(
            &nn,
            &workload,
            &placement,
            TaskSource::Dynamic(Box::new(sched)),
            &ExecConfig {
                seed: seed ^ 0x58,
                ..Default::default()
            },
        );
        let name = match policy {
            StealPolicy::MostColocated => "most_colocated",
            StealPolicy::Head => "head",
        };
        csv.row(&[
            name.into(),
            format!("{:.1}", result.local_fraction() * 100.0),
            secs(result.io_summary().mean),
            secs(result.makespan),
        ])?;
        report.line(format!(
            "{name}: locality {:.0}%, avg I/O {} s, makespan {} s",
            result.local_fraction() * 100.0,
            secs(result.io_summary().mean),
            secs(result.makespan)
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_core::dfs::DatasetSpec;
    use opass_core::runtime::RunResult;
    use opass_core::workloads::{Task, Workload};

    /// Runs a tiny single-data scenario.
    fn smoke_run(seed: u64) -> RunResult {
        let mut nn = Namenode::new(4, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("s", 8, 1 << 20),
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
        let w = Workload::new("s", tasks);
        execute(
            &nn,
            &w,
            &ProcessPlacement::one_per_node(4),
            TaskSource::Static(baseline::rank_interval(8, 4)),
            &ExecConfig::default(),
        )
    }

    #[test]
    fn smoke_runs_deterministically() {
        assert_eq!(smoke_run(1), smoke_run(1));
    }

    #[test]
    fn ablate_fill_handles_node_addition() {
        let dir = std::env::temp_dir().join("opass-ablate-fill-test");
        let report = ablate_fill(&dir, 9).unwrap();
        assert!(report.summary.len() >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
