//! Integration: multi-input (Figure 9/10) and dynamic (Figure 11)
//! pipelines in miniature.

use opass_core::{
    build_matching_values, ClusterSpec, Dynamic, Experiment, MultiData, OpassPlanner, PlanRequest,
    Strategy,
};
use opass_dfs::{ChunkId, DatasetSpec, DfsConfig, LayoutDelta, Namenode, NodeId, Placement};
use opass_matching::maxflow::MinCostFlowNetwork;
use opass_matching::{
    assign_multi_data, quotas, repair_multi_data, DynamicScheduler, MatchingValues,
};
use opass_runtime::ProcessPlacement;
use opass_workloads::{multi as multi_wl, MultiDataConfig, Task, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn multi(m: usize, seed: u64) -> MultiData {
    MultiData {
        cluster: ClusterSpec {
            n_nodes: m,
            seed,
            ..MultiData::default().cluster
        },
        tasks_per_process: 5,
        ..Default::default()
    }
}

fn dynamic(m: usize, seed: u64) -> Dynamic {
    Dynamic {
        cluster: ClusterSpec {
            n_nodes: m,
            seed,
            ..Dynamic::default().cluster
        },
        tasks_per_process: 5,
        compute_median: 0.3,
        compute_sigma: 1.0,
    }
}

#[test]
fn multi_input_improvement_is_partial() {
    // Paper Section V-A2: Opass improves multi-input reads, but less than
    // single-input, because a task's three inputs rarely share a node.
    let exp = multi(16, 2);
    let base = exp.run(Strategy::RankInterval).unwrap();
    let opass = exp.run(Strategy::Opass).unwrap();

    assert!(opass.result.local_byte_fraction() > base.result.local_byte_fraction() + 0.2);
    // Partial: some bytes still remote.
    assert!(opass.result.local_byte_fraction() < 0.95);
    assert!(opass.result.io_summary().mean < base.result.io_summary().mean);
}

#[test]
fn multi_input_reads_three_chunks_per_task() {
    let exp = multi(8, 3);
    let run = exp.run(Strategy::Opass).unwrap();
    assert_eq!(run.result.records.len(), 8 * 5 * 3);
    // Every task contributes exactly its three distinct inputs.
    let mut per_task = std::collections::HashMap::new();
    for r in &run.result.records {
        per_task
            .entry(r.task)
            .or_insert_with(Vec::new)
            .push(r.chunk);
    }
    for (task, chunks) in per_task {
        assert_eq!(chunks.len(), 3, "task {task}");
        let set: std::collections::HashSet<_> = chunks.iter().collect();
        assert_eq!(set.len(), 3, "task {task} has duplicate inputs");
    }
}

#[test]
fn dynamic_guided_beats_fifo_on_io() {
    let exp = dynamic(16, 4);
    let fifo = exp.run(Strategy::Fifo).unwrap();
    let guided = exp.run(Strategy::OpassGuided).unwrap();

    assert!(
        guided.result.local_fraction() > 0.7,
        "{}",
        guided.result.local_fraction()
    );
    assert!(fifo.result.local_fraction() < 0.5);
    assert!(guided.result.io_summary().mean < fifo.result.io_summary().mean);
}

#[test]
fn dynamic_completes_every_task_under_both_schedulers() {
    let exp = dynamic(12, 9);
    for strategy in [Strategy::Fifo, Strategy::OpassGuided] {
        let run = exp.run(strategy).unwrap();
        assert_eq!(run.result.records.len(), 12 * 5, "{strategy:?}");
    }
}

#[test]
fn dynamic_irregular_compute_spreads_finish_times() {
    // With heavy-tailed compute, some workers finish long before others
    // would under a static split; the dynamic dispatcher must still keep
    // the makespan below the static worst case of (max task) * quota.
    let exp = dynamic(8, 12);
    let run = exp.run(Strategy::OpassGuided).unwrap();
    let max_io_plus_compute = run
        .result
        .records
        .iter()
        .map(|r| r.completed_at - r.issued_at)
        .fold(0.0f64, f64::max);
    assert!(run.result.makespan > max_io_plus_compute);
    assert!(run.result.makespan.is_finite());
}

#[test]
fn algorithm1_repeats_its_exact_counts_on_the_benchmark_scenes() {
    // The multi-data scenes `plan_mix` and `sim_sweep` plan, as they
    // generate them at seed 1. Proposals and trade-ups are the matcher's
    // work as counts: they were read off the dense m × n candidate table
    // and must not move while the candidate order is generated lazily.
    for (n_nodes, n_tasks, proposals, reassignments) in
        [(128, 1_280, 19_354, 2), (1_024, 2_048, 162_561, 28)]
    {
        let mut rng = StdRng::seed_from_u64(1 ^ n_nodes as u64);
        let mut nn = Namenode::new(n_nodes, DfsConfig::default());
        let (_, tasks) = multi_wl::generate(
            &mut nn,
            &MultiDataConfig {
                n_tasks,
                input_sizes: vec![30 << 20, 20 << 20, 10 << 20],
            },
            &Placement::Random,
            &mut rng,
        );
        let placement = ProcessPlacement::one_per_node(n_nodes);

        let values = build_matching_values(&nn, &tasks, &placement);
        let out = assign_multi_data(&values);
        assert_eq!(out.proposals, proposals, "{n_nodes} x {n_tasks}");
        assert_eq!(out.reassignments, reassignments, "{n_nodes} x {n_tasks}");

        // A session builds its table from the captured layout, not the
        // namenode, and must arrive at the same plan.
        let planner = OpassPlanner::default();
        let request = PlanRequest::multi(&nn, &tasks, &placement);
        let plan = planner.plan(&request).into_multi().expect("multi plan");
        let session = planner
            .session(&request)
            .into_multi()
            .expect("multi session");
        for p in [&plan, session.plan()] {
            assert_eq!(p.assignment, out.assignment, "{n_nodes} x {n_tasks}");
            assert_eq!(p.matched_bytes, out.matched_bytes);
            assert_eq!(p.reassignments, reassignments);
        }
    }
}

/// The exact optimum of Algorithm 1's problem — every task to one
/// process, every process exactly its quota, the most co-located bytes
/// — as a min-cost flow: source → process (its quota), process → task
/// (1, cost −MiB) wherever the value is non-zero, and a zero-cost hub
/// that lets any process take any task at value zero; task → sink (1).
/// Returns the flow and the optimum in bytes.
fn exact_optimum(values: &MatchingValues) -> (u64, u64) {
    let (m, n) = (values.n_procs(), values.n_tasks());
    let (s, hub, t) = (0, 1 + m, 2 + m + n);
    let task = |i: usize| 2 + m + i;
    let mut net = MinCostFlowNetwork::new(t + 1);
    for (p, q) in quotas(n, m).into_iter().enumerate() {
        net.add_edge(s, 1 + p, q as u64, 0);
        net.add_edge(1 + p, hub, q as u64, 0);
        for &(i, bytes) in values.tasks_of(p) {
            assert_eq!(bytes % (1 << 20), 0, "values are whole MiB");
            net.add_edge(1 + p, task(i), 1, -((bytes >> 20) as i64));
        }
    }
    for i in 0..n {
        net.add_edge(hub, task(i), 1, 0);
        net.add_edge(task(i), t, 1, 0);
    }
    let (flow, cost) = net.min_cost_max_flow(s, t);
    (flow, ((-cost) as u64) << 20)
}

#[test]
fn algorithm1_and_its_repair_stay_at_or_below_the_exact_optimum() {
    // The benchmark scenes' generator at two shapes and three seeds;
    // then one replica of every eighth task's first input moves, and the
    // repair re-auctions the tasks that read a moved chunk.
    for (n_nodes, n_tasks) in [(64, 640), (128, 256)] {
        for seed in [1u64, 7, 20_150_525] {
            let mut rng = StdRng::seed_from_u64(seed ^ n_nodes as u64);
            let mut nn = Namenode::new(n_nodes, DfsConfig::default());
            let (_, tasks) = multi_wl::generate(
                &mut nn,
                &MultiDataConfig {
                    n_tasks,
                    input_sizes: vec![30 << 20, 20 << 20, 10 << 20],
                },
                &Placement::Random,
                &mut rng,
            );
            let placement = ProcessPlacement::one_per_node(n_nodes);
            let values = build_matching_values(&nn, &tasks, &placement);
            let out = assign_multi_data(&values);
            let (flow, optimum) = exact_optimum(&values);
            let what = format!("{n_nodes} x {n_tasks}, seed {seed}");
            assert_eq!(flow, n_tasks as u64, "{what}: every task placed");
            assert!(out.matched_bytes <= optimum, "{what}");

            let moves: Vec<_> = tasks
                .tasks
                .iter()
                .step_by(8)
                .map(|task| {
                    let chunk = task.inputs[0];
                    let held = &nn.chunk(chunk).expect("chunk exists").locations;
                    let to = loop {
                        let node = NodeId(rng.gen_range(0..n_nodes as u32));
                        if !held.contains(&node) {
                            break node;
                        }
                    };
                    (chunk, held[0], to)
                })
                .collect();
            nn.apply_migrations(&LayoutDelta::migrations(&moves))
                .expect("migrations apply");
            let moved: Vec<ChunkId> = moves.iter().map(|&(c, _, _)| c).collect();
            let affected: Vec<usize> = (0..n_tasks)
                .filter(|&i| tasks.tasks[i].inputs.iter().any(|c| moved.contains(c)))
                .collect();
            let churned = build_matching_values(&nn, &tasks, &placement);
            let repaired = repair_multi_data(&churned, &out.assignment, &affected);
            let (flow, optimum_after) = exact_optimum(&churned);
            assert_eq!(
                flow, n_tasks as u64,
                "{what}: every task placed after churn"
            );
            assert!(repaired.assignment.is_balanced(), "{what}");
            assert!(repaired.matched_bytes <= optimum_after, "{what}: repair");
        }
    }
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, w| {
        (hash ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64 nodes with two datasets of 512 chunks, and two workloads over
/// them: one input per task, and two per task where each chunk of the
/// second dataset is read by four tasks.
fn shared_input_world() -> (Namenode, Workload, Workload) {
    let mut nn = Namenode::new(64, DfsConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    let mut chunks_of = |name: &str, size: u64| {
        let ds = nn.create_dataset(
            &DatasetSpec::uniform(name, 512, size),
            &Placement::Random,
            &mut rng,
        );
        nn.dataset(ds).expect("dataset exists").chunks.clone()
    };
    let a = chunks_of("a", 64 << 20);
    let b = chunks_of("b", 16 << 20);
    let single = Workload::new("single", a.iter().map(|&c| Task::single(c)).collect());
    let multi = Workload::new(
        "multi",
        (0..512)
            .map(|i| Task::multi(vec![a[i], b[i / 4]]))
            .collect(),
    );
    (nn, single, multi)
}

#[test]
fn multi_owners_and_guided_orders_repeat_the_recorded_plans() {
    let (nn, single, multi) = shared_input_world();
    let placement = ProcessPlacement::one_per_node(64);
    let planner = OpassPlanner::default();

    // Algorithm 1's owners, the same from the one-shot plan and from a
    // session's first plan.
    let request = PlanRequest::multi(&nn, &multi, &placement);
    let plan = planner.plan(&request).into_multi().expect("multi plan");
    let session = planner
        .session(&request)
        .into_multi()
        .expect("multi session");
    assert_eq!(session.plan().assignment, plan.assignment);
    let hash = fnv([
        plan.matched_bytes,
        plan.total_bytes,
        plan.reassignments as u64,
    ]
    .into_iter()
    .chain(plan.assignment.owners().iter().map(|&p| p as u64)));
    assert_eq!(
        hash, 0x0eaa_af89_1189_8304,
        "multi owners changed: {hash:#018x}"
    );

    // The order a guided scheduler hands tasks out to workers asking in
    // an irregular order, for a single- and a multi-input workload.
    for (workload, want) in [
        (&single, 0xf450_d2ef_5154_e414u64),
        (&multi, 0x4258_447b_6d07_034c),
    ] {
        let mut sched = planner
            .plan(&PlanRequest::dynamic(&nn, workload, &placement).seed(5))
            .into_dynamic()
            .expect("guided scheduler");
        let mut order = Vec::new();
        for k in 0u64.. {
            let worker = ((k * k + k / 3) % 64) as usize;
            let Some(task) = sched.next_task(worker) else {
                break;
            };
            order.extend([worker as u64, task as u64]);
        }
        assert_eq!(order.len(), 2 * workload.len());
        let hash = fnv(order);
        assert_eq!(
            hash, want,
            "{}: guided order changed: {hash:#018x}",
            workload.name
        );
    }
}
