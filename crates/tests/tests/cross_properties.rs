//! Cross-crate property tests: arbitrary workloads and assignments through
//! the full executor must conserve work, respect causality, and stay
//! deterministic. Cases are drawn from seeded `StdRng` loops so every run
//! exercises the same instances.

use opass_core::planner::OpassPlanner;
use opass_core::request::PlanRequest;
use opass_dfs::{DatasetSpec, DfsConfig, Namenode, Placement, ReplicaChoice};
use opass_matching::Assignment;
use opass_runtime::{execute, ExecConfig, ProcessPlacement, TaskSource};
use opass_workloads::{Task, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a namenode + single-input workload from compact parameters.
fn build(n_nodes: usize, n_chunks: usize, replication: u32, seed: u64) -> (Namenode, Workload) {
    let mut nn = Namenode::new(n_nodes, DfsConfig { replication });
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = nn.create_dataset(
        &DatasetSpec::uniform("prop", n_chunks, 8 << 20),
        &Placement::Random,
        &mut rng,
    );
    let tasks = nn
        .dataset(ds)
        .expect("created")
        .chunks
        .iter()
        .map(|&c| Task::single(c))
        .collect();
    (nn, Workload::new("prop", tasks))
}

#[test]
fn executor_conserves_reads_and_bytes() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    for _ in 0..24 {
        let n_nodes = rng.gen_range(3usize..12);
        let chunks_per = rng.gen_range(1usize..6);
        let owners_seed = rng.gen_range(0u64..500);
        let n_chunks = n_nodes * chunks_per;
        let (nn, workload) = build(n_nodes, n_chunks, 3, owners_seed);
        // Arbitrary (possibly unbalanced) deterministic assignment.
        let owners: Vec<usize> = (0..n_chunks)
            .map(|t| (t.wrapping_mul(7).wrapping_add(owners_seed as usize)) % n_nodes)
            .collect();
        let assignment = Assignment::from_owners(owners, n_nodes);
        let run = execute(
            &nn,
            &workload,
            &ProcessPlacement::one_per_node(n_nodes),
            TaskSource::Static(assignment),
            &ExecConfig {
                seed: owners_seed,
                ..Default::default()
            },
        );
        assert_eq!(run.records.len(), n_chunks);
        let total: u64 = run.served_bytes.iter().sum();
        assert_eq!(total, n_chunks as u64 * (8 << 20));
        // Causality: completion after issue, all within the makespan.
        for r in &run.records {
            assert!(r.completed_at >= r.issued_at);
            assert!(r.completed_at <= run.makespan + 1e-9);
        }
        // Every read sourced from an actual replica holder.
        for r in &run.records {
            let locations = nn.locate(r.chunk).expect("chunk exists");
            assert!(locations.contains(&r.source));
        }
    }
}

#[test]
fn planner_locality_never_below_baseline_for_same_layout() {
    let mut rng = StdRng::seed_from_u64(0xE2);
    for _ in 0..24 {
        let n_nodes = rng.gen_range(3usize..10);
        let chunks_per = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..300);
        let n_chunks = n_nodes * chunks_per;
        let (nn, workload) = build(n_nodes, n_chunks, 3, seed);
        let placement = ProcessPlacement::one_per_node(n_nodes);
        let plan = OpassPlanner::default()
            .plan(&PlanRequest::single(&nn, &workload, &placement).seed(seed))
            .into_single()
            .expect("single plan");
        assert!(plan.assignment.is_balanced());

        // Matched files are an upper bound for what any balanced
        // assignment achieves; rank-interval is one such assignment.
        let baseline = opass_runtime::baseline::rank_interval(n_chunks, n_nodes);
        let graph = opass_core::build_locality_graph_from_layout(
            &opass_core::capture_workload_layout(&nn, &workload),
            &placement,
        );
        let sizes = vec![8u64 << 20; n_chunks];
        let base = opass_matching::locality_report(&baseline, &graph, &sizes);
        assert!(
            plan.matched_files >= base.local_tasks,
            "opass {} < baseline {}",
            plan.matched_files,
            base.local_tasks
        );
    }
}

#[test]
fn replica_choice_policies_always_pick_holders() {
    let mut rng = StdRng::seed_from_u64(0xE3);
    for _ in 0..24 {
        let n_nodes = rng.gen_range(3usize..10);
        let seed = rng.gen_range(0u64..300);
        let (nn, workload) = build(n_nodes, n_nodes * 2, 2, seed);
        for choice in [
            ReplicaChoice::PreferLocalRandom,
            ReplicaChoice::RandomReplica,
        ] {
            let run = execute(
                &nn,
                &workload,
                &ProcessPlacement::one_per_node(n_nodes),
                TaskSource::Static(opass_runtime::baseline::rank_interval(
                    workload.len(),
                    n_nodes,
                )),
                &ExecConfig {
                    replica_choice: choice,
                    seed,
                    ..Default::default()
                },
            );
            for r in &run.records {
                let locations = nn.locate(r.chunk).expect("chunk exists");
                assert!(locations.contains(&r.source));
            }
        }
    }
}
