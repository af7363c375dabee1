//! Integration: cluster churn. The paper notes node addition/removal skews
//! placement so the max-flow matching is no longer full; Opass must still
//! produce balanced assignments and beat the baseline on the skewed layout.

use opass_core::planner::OpassPlanner;
use opass_core::request::PlanRequest;
use opass_dfs::{
    ChunkId, DatasetSpec, DfsConfig, LayoutDelta, LayoutSnapshot, Namenode, NodeId, Placement,
    ReplicaChoice,
};
use opass_runtime::{baseline, execute, ExecConfig, ProcessPlacement, TaskSource};
use opass_workloads::{single, SingleDataConfig, Task, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn skewed_cluster(seed: u64) -> (Namenode, opass_workloads::Workload) {
    // Write on 12 nodes, then decommission 2 and add 6 empty ones.
    let mut nn = Namenode::new(12, DfsConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SingleDataConfig {
        n_procs: 16,
        chunks_per_process: 4,
        chunk_size: 64 << 20,
    };
    let (_, workload) = single::generate(&mut nn, &cfg, &Placement::Random, &mut rng);
    nn.decommission(NodeId(0), &mut rng).expect("decommission");
    nn.decommission(NodeId(5), &mut rng).expect("decommission");
    for _ in 0..6 {
        nn.add_node();
    }
    nn.check_invariants()
        .expect("namenode invariants after churn");
    (nn, workload)
}

#[test]
fn planner_handles_skewed_layout() {
    let (nn, workload) = skewed_cluster(31);
    // Processes on every registered node, including dead/empty ones —
    // the planner must still balance; dead nodes simply have no locality.
    let placement = ProcessPlacement::one_per_node(nn.node_count());
    let plan = OpassPlanner::default()
        .plan(&PlanRequest::single(&nn, &workload, &placement).seed(1))
        .into_single()
        .expect("single plan");
    assert!(plan.assignment.is_balanced());
    assert_eq!(plan.matched_files + plan.filled_files, workload.len());
    // Skew means no full matching: some files must be filled.
    assert!(
        plan.filled_files > 0,
        "expected a partial matching after churn"
    );
}

#[test]
fn opass_still_beats_baseline_after_churn() {
    let (nn, workload) = skewed_cluster(32);
    let placement = ProcessPlacement::one_per_node(nn.node_count());
    let plan = OpassPlanner::default()
        .plan(&PlanRequest::single(&nn, &workload, &placement).seed(2))
        .into_single()
        .expect("single plan");
    let config = ExecConfig {
        replica_choice: ReplicaChoice::PreferLocalRandom,
        seed: 3,
        ..Default::default()
    };
    let base = execute(
        &nn,
        &workload,
        &placement,
        TaskSource::Static(baseline::rank_interval(workload.len(), nn.node_count())),
        &config,
    );
    let opass = execute(
        &nn,
        &workload,
        &placement,
        TaskSource::Static(plan.assignment),
        &config,
    );
    assert!(opass.local_fraction() > base.local_fraction());
    assert!(opass.io_summary().mean < base.io_summary().mean);
}

#[test]
fn decommissioned_nodes_serve_nothing() {
    let (nn, workload) = skewed_cluster(33);
    let placement = ProcessPlacement::one_per_node(nn.node_count());
    let run = execute(
        &nn,
        &workload,
        &placement,
        TaskSource::Static(baseline::rank_interval(workload.len(), nn.node_count())),
        &ExecConfig::default(),
    );
    // Nodes 0 and 5 are decommissioned: their replicas moved, so they must
    // never appear as read sources.
    for r in &run.records {
        assert_ne!(r.source, NodeId(0));
        assert_ne!(r.source, NodeId(5));
    }
}

#[test]
fn added_nodes_hold_no_data_but_can_read() {
    let (nn, workload) = skewed_cluster(34);
    let placement = ProcessPlacement::one_per_node(nn.node_count());
    let run = execute(
        &nn,
        &workload,
        &placement,
        TaskSource::Static(baseline::rank_interval(workload.len(), nn.node_count())),
        &ExecConfig::default(),
    );
    // New nodes (ids 12..17) joined empty: they serve nothing...
    for node in 12..18u32 {
        assert_eq!(run.served_bytes[node as usize], 0, "node {node}");
    }
    // ...but their processes still execute reads (remotely).
    let new_node_reads = run
        .records
        .iter()
        .filter(|r| r.reader.0 >= 12 && r.reader.0 < 18)
        .count();
    assert!(new_node_reads > 0);
}

#[test]
fn crash_repair_cycle_preserves_readability() {
    // Fail a node, repair, then execute a full read: every chunk must be
    // servable from the repaired layout.
    let mut nn = Namenode::new(10, DfsConfig::default());
    let mut rng = StdRng::seed_from_u64(41);
    let ds = nn.create_dataset(
        &DatasetSpec::uniform("survive", 30, 16 << 20),
        &Placement::Random,
        &mut rng,
    );
    nn.fail_node(NodeId(4)).expect("crash");
    assert!(!nn.under_replicated().is_empty());
    nn.repair_under_replicated(&mut rng).expect("repair");
    nn.check_invariants().expect("healthy after repair");

    let tasks: Vec<Task> = nn
        .dataset(ds)
        .unwrap()
        .chunks
        .iter()
        .map(|&c| Task::single(c))
        .collect();
    let workload = Workload::new("survive", tasks);
    let placement = ProcessPlacement::one_per_node(10);
    let run = execute(
        &nn,
        &workload,
        &placement,
        TaskSource::Static(baseline::rank_interval(30, 10)),
        &ExecConfig::default(),
    );
    assert_eq!(run.records.len(), 30);
    for r in &run.records {
        assert_ne!(r.source, NodeId(4), "dead node must not serve");
    }
}

/// Randomized equivalence: through arbitrary churn (failures + repair,
/// node joins, rebalances) an incremental session must agree with a
/// from-scratch plan on matched-file count, matched bytes, and both
/// locality tallies at every step. Uniform chunks make the byte totals
/// comparable even though the two maximum matchings may differ.
#[test]
fn replan_tracks_scratch_plans_through_randomized_churn() {
    for seed in [61u64, 62, 63] {
        let mut nn = Namenode::new(10, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("churny", 60, 32 << 20),
            &Placement::Random,
            &mut rng,
        );
        let chunks = nn.dataset(ds).unwrap().chunks.clone();
        let w = Workload::new("churny", chunks.iter().map(|&c| Task::single(c)).collect());
        let scope: BTreeSet<ChunkId> = chunks.iter().copied().collect();
        let placement = ProcessPlacement::one_per_node(10);
        nn.take_events();
        let planner = OpassPlanner::default();
        let mut session = planner
            .session(&PlanRequest::single(&nn, &w, &placement).seed(17))
            .into_single()
            .expect("single session");
        for step in 0..6 {
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
            let delta = LayoutDelta::from_events(&nn.take_events(), |c| scope.contains(&c));
            let repaired = session.replan(&delta).clone();
            let scratch = planner
                .plan(&PlanRequest::single(&nn, &w, &placement).seed(17))
                .into_single()
                .expect("single plan");
            assert_eq!(
                repaired.matched_files, scratch.matched_files,
                "seed {seed} step {step}: matched-file counts diverged"
            );
            assert_eq!(
                repaired.locality.local_tasks, scratch.locality.local_tasks,
                "seed {seed} step {step}: local-task tallies diverged"
            );
            assert_eq!(
                repaired.locality.local_bytes, scratch.locality.local_bytes,
                "seed {seed} step {step}: matched-byte totals diverged"
            );
            assert!(
                repaired.assignment.is_balanced(),
                "seed {seed} step {step}: repaired assignment unbalanced"
            );
        }
    }
}

/// Two tasks reading the same chunk put that chunk in the session's
/// snapshot twice, as two file vertices. Replica churn on the chunk has
/// to reach both: after every delta the session's snapshot equals a
/// fresh capture and the repaired matching is as large as a scratch
/// plan's.
#[test]
fn replan_reaches_every_task_reading_a_chunk_listed_twice() {
    let mut nn = Namenode::new(8, DfsConfig::default());
    let mut rng = StdRng::seed_from_u64(71);
    let ds = nn.create_dataset(
        &DatasetSpec::uniform("shared", 16, 32 << 20),
        &Placement::Random,
        &mut rng,
    );
    let mut ids = nn.dataset(ds).unwrap().chunks.clone();
    ids.push(ids[0]);
    let w = Workload::new("shared", ids.iter().map(|&c| Task::single(c)).collect());
    let scope: BTreeSet<ChunkId> = ids.iter().copied().collect();
    let placement = ProcessPlacement::one_per_node(8);
    nn.take_events();
    let planner = OpassPlanner::default();
    let mut session = planner
        .session(&PlanRequest::single(&nn, &w, &placement).seed(5))
        .into_single()
        .expect("single session");
    for step in 0..4 {
        nn.rebalance(1.05, &mut rng);
        // Fail a node that holds the shared chunk, so its replicas move.
        let holder = nn.chunk(ids[0]).expect("chunk exists").locations[0];
        nn.fail_node(holder).expect("fail alive node");
        nn.repair_under_replicated(&mut rng).expect("repair");
        let delta = LayoutDelta::from_events(&nn.take_events(), |c| scope.contains(&c));
        assert!(!delta.is_empty(), "step {step}");
        let repaired = session.replan(&delta).clone();
        assert_eq!(
            session.snapshot(),
            &LayoutSnapshot::capture(&nn, &ids),
            "step {step}: snapshot diverged from the namenode"
        );
        let scratch = planner
            .plan(&PlanRequest::single(&nn, &w, &placement).seed(5))
            .into_single()
            .expect("single plan");
        assert_eq!(
            repaired.matched_files, scratch.matched_files,
            "step {step}: matched-file counts diverged"
        );
        assert!(repaired.assignment.is_balanced(), "step {step}");
    }
}

#[test]
fn balancer_improves_opass_locality_after_skewed_ingest() {
    // Writer-local ingest piles replicas on one node; the balancer spreads
    // them, which unlocks a fuller matching for everyone else.
    let build = || {
        let mut nn = Namenode::new(8, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(55);
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("skew", 40, 16 << 20),
            &Placement::WriterLocal { writer: NodeId(0) },
            &mut rng,
        );
        let tasks: Vec<Task> = nn
            .dataset(ds)
            .unwrap()
            .chunks
            .iter()
            .map(|&c| Task::single(c))
            .collect();
        (nn, Workload::new("skew", tasks), rng)
    };
    let placement = ProcessPlacement::one_per_node(8);

    let (nn_before, w, _) = build();
    let before = OpassPlanner::default()
        .plan(&PlanRequest::single(&nn_before, &w, &placement).seed(1))
        .into_single()
        .expect("single plan");

    let (mut nn_after, w2, mut rng) = build();
    let moved = nn_after.rebalance(1.2, &mut rng);
    assert!(moved > 0, "balancer should move replicas off the writer");
    nn_after.check_invariants().unwrap();
    let after = OpassPlanner::default()
        .plan(&PlanRequest::single(&nn_after, &w2, &placement).seed(1))
        .into_single()
        .expect("single plan");

    assert!(
        after.matched_files >= before.matched_files,
        "balanced layout cannot match fewer files: {} < {}",
        after.matched_files,
        before.matched_files
    );
}
