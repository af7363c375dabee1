//! Integration: cluster churn. The paper notes node addition/removal skews
//! placement so the max-flow matching is no longer full; Opass must still
//! produce balanced assignments and beat the baseline on the skewed layout.

use opass_core::build_locality_graph_from_layout;
use opass_core::planner::{OpassPlanner, SingleDataPlan};
use opass_core::request::PlanRequest;
use opass_dfs::{
    ChunkId, ChunkLayout, DatasetSpec, DfsConfig, LayoutDelta, LayoutSnapshot, Namenode, NodeId,
    Placement, ReplicaChoice,
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

/// Holds a repaired plan to the from-scratch plan on the same layout:
/// matched-file count, both locality tallies, and balance.
fn assert_tracks(repaired: &SingleDataPlan, scratch: &SingleDataPlan, at: &str) {
    assert_eq!(
        repaired.matched_files, scratch.matched_files,
        "{at}: matched-file counts diverged"
    );
    assert_eq!(
        repaired.locality.local_tasks, scratch.locality.local_tasks,
        "{at}: local-task tallies diverged"
    );
    assert_eq!(
        repaired.locality.local_bytes, scratch.locality.local_bytes,
        "{at}: matched-byte totals diverged"
    );
    assert!(
        repaired.assignment.is_balanced(),
        "{at}: repaired assignment unbalanced"
    );
}

/// The session keeps no copy of the layout, so its plan is checked
/// against the layout it should have reached: a session resumed on
/// `layout` from the plan's owners must hold the same matching — the
/// same files read locally, on the same processes, by `layout`'s own
/// replicas — and so report the same counts and locality. A replica the
/// session missed shows as a local read the layout does not have, or as
/// a file the resumed matching places differently.
fn assert_resumes_on(
    planner: &OpassPlanner,
    layout: &LayoutSnapshot,
    placement: &ProcessPlacement,
    repaired: &SingleDataPlan,
    at: &str,
) {
    let owners: Vec<u32> = repaired
        .assignment
        .owners()
        .iter()
        .map(|&p| p as u32)
        .collect();
    let request = PlanRequest::single_from_layout(layout, placement);
    let resumed = planner.resume_session(&request, &owners);
    let resumed = resumed.plan();
    assert_eq!(
        resumed.matched_files, repaired.matched_files,
        "{at}: matched"
    );
    assert_eq!(resumed.filled_files, repaired.filled_files, "{at}: filled");
    assert_eq!(resumed.locality, repaired.locality, "{at}: locality");
    let truth = build_locality_graph_from_layout(layout, placement);
    let local = |plan: &SingleDataPlan| -> Vec<(usize, usize)> {
        (0..layout.len())
            .map(|f| (f, plan.assignment.owner_of(f)))
            .filter(|&(f, p)| truth.weight(p, f).is_some())
            .collect()
    };
    assert_eq!(local(resumed), local(repaired), "{at}: local owners");
}

/// An island-placed snapshot over `islands * per` nodes: every chunk's
/// two replicas inside island `chunk % islands`, so the locality graph
/// splits into one connected component per island.
fn island_snapshot(islands: usize, per: usize, chunks: usize, rng: &mut StdRng) -> LayoutSnapshot {
    let mut nn = Namenode::new(islands * per, DfsConfig { replication: 2 });
    let locations: Vec<Vec<NodeId>> = (0..chunks)
        .map(|i| {
            let base = (i % islands) * per;
            let a = base + rng.gen_range(0..per);
            let mut b = base + rng.gen_range(0..per);
            while b == a {
                b = base + rng.gen_range(0..per);
            }
            vec![NodeId(a as u32), NodeId(b as u32)]
        })
        .collect();
    let spec = DatasetSpec::uniform("islands", chunks, 64 << 20);
    let ds = nn.create_dataset_placed(&spec, locations);
    let chunk_ids = nn.dataset(ds).expect("dataset exists").chunks.clone();
    LayoutSnapshot::capture(&nn, &chunk_ids)
}

/// A random island-local delta against `snapshot`: replica churn on
/// `churn` chunks and, with `file_churn`, one file removed and one
/// brand-new file added.
fn island_delta(
    snapshot: &LayoutSnapshot,
    (islands, per): (usize, usize),
    churn: usize,
    file_churn: bool,
    next_chunk_id: &mut u64,
    rng: &mut StdRng,
) -> LayoutDelta {
    let n = snapshot.entries().len();
    let mut delta = LayoutDelta::default();
    for _ in 0..churn {
        let ci = rng.gen_range(0..n);
        let entry = &snapshot.entries()[ci];
        let base = (ci % islands) * per;
        if entry.locations.len() > 1 {
            delta
                .replicas_dropped
                .push((entry.chunk, entry.locations[0]));
        }
        for _ in 0..8 {
            let node = NodeId((base + rng.gen_range(0..per)) as u32);
            if !entry.locations.contains(&node) {
                delta.replicas_added.push((entry.chunk, node));
                break;
            }
        }
    }
    if file_churn {
        let victim = &snapshot.entries()[rng.gen_range(0..n)];
        delta.files_removed.push(victim.chunk);
        let base = rng.gen_range(0..islands) * per;
        delta.files_added.push(ChunkLayout {
            chunk: ChunkId(*next_chunk_id),
            size: 64 << 20,
            locations: vec![NodeId(base as u32), NodeId((base + 1) as u32)].into(),
        });
        *next_chunk_id += 1;
    }
    delta.normalize();
    delta
}

/// Randomized equivalence: through arbitrary churn (failures + repair,
/// node joins, rebalances) an incremental session must agree with a
/// from-scratch plan on matched-file count, matched bytes, and both
/// locality tallies at every step. Uniform chunks make the byte totals
/// comparable even though the two maximum matchings may differ. The
/// last input is 64 islands of 4 nodes holding 12 800 chunks — a
/// locality graph of 64 components — churned by island-local deltas,
/// with and without file adds and removals, where the session's plan
/// must also be the one a session resumed on the delta-applied layout
/// holds.
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
        nn.take_delta(|_| false);
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
            let delta = nn.take_delta(|c| scope.contains(&c));
            let repaired = session.replan(&delta).clone();
            let scratch = planner
                .plan(&PlanRequest::single(&nn, &w, &placement).seed(17))
                .into_single()
                .expect("single plan");
            assert_tracks(&repaired, &scratch, &format!("seed {seed} step {step}"));
        }
    }

    let (islands, per, chunks) = (64, 4, 12_800);
    let placement = ProcessPlacement::one_per_node(islands * per);
    let planner = OpassPlanner::default();
    for file_churn in [false, true] {
        let mut rng = StdRng::seed_from_u64(0);
        let mut shadow = island_snapshot(islands, per, chunks, &mut rng);
        let mut session = planner
            .session(&PlanRequest::single_from_layout(&shadow, &placement).seed(0))
            .into_single()
            .expect("single session");
        let mut next_chunk_id = 10_000_000;
        let mut delta_rng = StdRng::seed_from_u64(0xD417A);
        for step in 0..10 {
            let delta = island_delta(
                &shadow,
                (islands, per),
                chunks / 100,
                file_churn,
                &mut next_chunk_id,
                &mut delta_rng,
            );
            shadow.apply_delta(&delta);
            let repaired = session.replan(&delta).clone();
            let scratch = planner
                .plan(&PlanRequest::single_from_layout(&shadow, &placement).seed(0))
                .into_single()
                .expect("single plan");
            let at = format!("islands, file churn {file_churn}, step {step}");
            assert_tracks(&repaired, &scratch, &at);
            assert_resumes_on(&planner, &shadow, &placement, &repaired, &at);
        }
    }
}

/// Two tasks reading the same chunk put that chunk in the session's
/// layout twice, as two file vertices. Replica churn on the chunk has
/// to reach both: after every delta the session's plan is the one a
/// session resumed on a fresh capture holds, and the repaired matching
/// is as large as a scratch plan's.
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
    nn.take_delta(|_| false);
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
        let delta = nn.take_delta(|c| scope.contains(&c));
        assert!(!delta.is_empty(), "step {step}");
        let repaired = session.replan(&delta).clone();
        let layout = LayoutSnapshot::capture(&nn, &ids);
        assert_resumes_on(
            &planner,
            &layout,
            &placement,
            &repaired,
            &format!("step {step}"),
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
