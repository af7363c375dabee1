//! Integration: the single-data pipeline (paper Figures 7 & 8 in
//! miniature). Asserts the paper's qualitative claims — who wins, and
//! roughly by how much — across cluster sizes and seeds.

use opass_core::planner::OpassPlanner;
use opass_core::request::PlanRequest;
use opass_core::{ClusterSpec, Experiment, SingleData, Strategy};
use opass_dfs::{DatasetSpec, DfsConfig, LayoutSnapshot, Namenode, Placement, RackMap};
use opass_runtime::ProcessPlacement;
use opass_serve::spec::ServeSpec;
use opass_workloads::{Task, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn experiment(m: usize, seed: u64) -> SingleData {
    SingleData {
        cluster: ClusterSpec {
            n_nodes: m,
            seed,
            ..Default::default()
        },
        chunks_per_process: 5,
    }
}

#[test]
fn opass_wins_across_cluster_sizes() {
    for m in [8usize, 16, 32] {
        let exp = experiment(m, 0xF00D ^ m as u64);
        let base = exp.run(Strategy::RankInterval).unwrap();
        let opass = exp.run(Strategy::Opass).unwrap();

        // Locality flips from mostly-remote to mostly-local.
        assert!(
            base.result.local_fraction() < 0.55,
            "m={m}: baseline locality {}",
            base.result.local_fraction()
        );
        assert!(
            opass.result.local_fraction() > 0.9,
            "m={m}: opass locality {}",
            opass.result.local_fraction()
        );
        // Average I/O and makespan improve.
        assert!(
            opass.result.io_summary().mean < base.result.io_summary().mean,
            "m={m}"
        );
        assert!(opass.result.makespan < base.result.makespan, "m={m}");
    }
}

#[test]
fn baseline_imbalance_grows_with_cluster_size() {
    // Paper Fig. 7(a): the max/min I/O ratio worsens as the cluster grows.
    let small = experiment(8, 1).run(Strategy::RankInterval).unwrap();
    let large = experiment(48, 1).run(Strategy::RankInterval).unwrap();
    assert!(
        large.result.io_summary().max_over_min() > small.result.io_summary().max_over_min(),
        "large {} vs small {}",
        large.result.io_summary().max_over_min(),
        small.result.io_summary().max_over_min()
    );
}

#[test]
fn opass_balances_served_bytes() {
    // Paper Fig. 8: with Opass every node serves about chunks_per_process
    // chunks; without, the spread is wide.
    let exp = experiment(32, 7);
    let base = exp.run(Strategy::RankInterval).unwrap();
    let opass = exp.run(Strategy::Opass).unwrap();
    let served_base = base.result.served_summary(32);
    let served_opass = opass.result.served_summary(32);
    assert!(
        served_opass.max - served_opass.min <= 2.0 * 64.0 * 1024.0 * 1024.0,
        "opass served spread {}..{}",
        served_opass.min,
        served_opass.max
    );
    assert!(
        served_base.max - served_base.min > served_opass.max - served_opass.min,
        "baseline must be more imbalanced"
    );
}

#[test]
fn every_chunk_read_exactly_once() {
    let exp = experiment(16, 3);
    for strategy in [
        Strategy::RankInterval,
        Strategy::RandomAssign,
        Strategy::Opass,
    ] {
        let run = exp.run(strategy).unwrap();
        let mut chunks: Vec<u64> = run.result.records.iter().map(|r| r.chunk.0).collect();
        chunks.sort_unstable();
        chunks.dedup();
        assert_eq!(chunks.len(), 16 * 5, "{strategy:?}");
        // Conservation: served bytes equal the dataset volume.
        let total: u64 = run.result.served_bytes.iter().sum();
        assert_eq!(total, (16 * 5) as u64 * (64 << 20), "{strategy:?}");
    }
}

#[test]
fn runs_are_deterministic_per_seed_and_differ_across_seeds() {
    let a = experiment(12, 5).run(Strategy::Opass).unwrap();
    let b = experiment(12, 5).run(Strategy::Opass).unwrap();
    assert_eq!(a.result, b.result);
    let c = experiment(12, 6).run(Strategy::Opass).unwrap();
    assert_ne!(a.result, c.result, "different seeds must differ");
}

#[test]
fn opass_io_times_are_tight_around_local_read_time() {
    // Paper Fig. 7(b): with Opass the avg I/O stays ~0.9 s with tiny
    // variance at every cluster size.
    for m in [8usize, 24, 40] {
        let run = experiment(m, 11).run(Strategy::Opass).unwrap();
        let s = run.result.io_summary();
        assert!((s.mean - 0.9).abs() < 0.3, "m={m} mean {}", s.mean);
        assert!(s.stddev < 0.5, "m={m} stddev {}", s.stddev);
    }
}

#[test]
fn real_shape_owners_repeat_the_recorded_plans() {
    // Every owner of every cold plan the service would make for
    // `ServeSpec { 64 nodes, 8 x 1 280, seed 1 }`, then of one
    // 128 x 32 768 layout, folded into one FNV-1a. The seeded worlds,
    // the max-flow solve and the random fill all feed it, so a changed
    // draw, adjacency order or augmenting choice anywhere moves it.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |nn: &Namenode, n_nodes: usize| {
        let placement = ProcessPlacement::one_per_node(n_nodes);
        for dataset in nn.datasets() {
            let snapshot = LayoutSnapshot::capture(nn, &dataset.chunks);
            let plan = OpassPlanner::default()
                .plan(&PlanRequest::single_from_layout(&snapshot, &placement).seed(1))
                .into_single()
                .expect("single plan");
            for &owner in plan.assignment.owners() {
                hash = (hash ^ owner as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    };
    let spec = ServeSpec {
        n_nodes: 64,
        n_datasets: 8,
        chunks_per_dataset: 1280,
        seed: 1,
        ..ServeSpec::default()
    };
    fold(&spec.build_namenode(), spec.n_nodes);
    let mut nn = Namenode::new(128, DfsConfig::default());
    nn.create_dataset(
        &DatasetSpec::uniform("d", 32_768, 64 << 20),
        &Placement::Random,
        &mut StdRng::seed_from_u64(1),
    );
    fold(&nn, 128);
    assert_eq!(hash, 0xd584_9835_e7a8_9b99, "owners changed: {hash:#018x}");
}

#[test]
fn bench_shaped_single_data_owners_repeat_the_recorded_plans() {
    // `plan_mix`'s cold plans: 128 nodes, 8 192 chunks, here one world
    // and one plan seed per seed, so sixteen different flows are pinned.
    let mut words = Vec::new();
    for seed in 0..16 {
        let mut nn = Namenode::new(128, DfsConfig::default());
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("d", 8192, 64 << 20),
            &Placement::Random,
            &mut StdRng::seed_from_u64(seed),
        );
        let chunks = nn.dataset(ds).expect("dataset exists").chunks.clone();
        let snapshot = LayoutSnapshot::capture(&nn, &chunks);
        let placement = ProcessPlacement::one_per_node(128);
        let plan = OpassPlanner::default()
            .plan(&PlanRequest::single_from_layout(&snapshot, &placement).seed(seed))
            .into_single()
            .expect("single plan");
        words.extend([plan.matched_files, plan.filled_files]);
        words.extend_from_slice(plan.assignment.owners());
    }
    let hash = fnv(words.iter().map(|&w| w as u64));
    assert_eq!(
        hash, 0x4fe5_4874_7dfc_6595,
        "128 x 8 192 owners changed: {hash:#018x}"
    );

    // `sim_sweep`'s large single-data scene: 1024 nodes, 10 chunks per
    // process, drawn and planned as its set-up does on seed 1.
    let mut nn = Namenode::new(1024, DfsConfig::default());
    let (_, tasks) = opass_workloads::single::generate(
        &mut nn,
        &opass_workloads::SingleDataConfig {
            n_procs: 1024,
            chunks_per_process: 10,
            chunk_size: 64 << 20,
        },
        &Placement::Random,
        &mut StdRng::seed_from_u64(1 ^ 1024),
    );
    let placement = ProcessPlacement::one_per_node(1024);
    let plan = OpassPlanner::default()
        .plan(&PlanRequest::single(&nn, &tasks, &placement).seed(1))
        .into_single()
        .expect("single plan");
    let counts = [plan.matched_files, plan.filled_files];
    let hash = fnv(counts
        .iter()
        .chain(plan.assignment.owners())
        .map(|&w| w as u64));
    assert_eq!(
        hash, 0x1a66_9393_ceb9_3a31,
        "1024 x 10 240 owners changed: {hash:#018x}"
    );
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, w| {
        (hash ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 1 280 chunks on a 64-node, 8-rack cluster with 32 processes on its
/// first half: chunks held only by the other half cannot be node-local,
/// so the rack tier and the fill both decide owners.
fn half_placed_world() -> (Namenode, Workload, ProcessPlacement, RackMap) {
    let mut nn = Namenode::new(64, DfsConfig::default());
    let ds = nn.create_dataset(
        &DatasetSpec::uniform("d", 1280, 64 << 20),
        &Placement::Random,
        &mut StdRng::seed_from_u64(1),
    );
    let tasks = Workload::new(
        "w",
        nn.dataset(ds)
            .expect("dataset exists")
            .chunks
            .iter()
            .map(|&c| Task::single(c))
            .collect(),
    );
    let placement = ProcessPlacement::round_robin(32, 64);
    (nn, tasks, placement, RackMap::uniform(64, 8))
}

/// Every odd process twice the speed of an even one.
fn alternating_speeds(n_procs: usize) -> Vec<f64> {
    (0..n_procs).map(|p| 1.0 + (p % 2) as f64).collect()
}

#[test]
fn rack_aware_and_weighted_owners_repeat_the_recorded_plans() {
    let (nn, tasks, placement, racks) = half_placed_world();
    let planner = OpassPlanner::default();

    let two_tier = planner
        .plan(
            &PlanRequest::single(&nn, &tasks, &placement)
                .rack_aware(&racks)
                .seed(3),
        )
        .into_two_tier()
        .expect("two-tier outcome");
    let counts = [
        two_tier.node_matched,
        two_tier.rack_matched,
        two_tier.filled_files,
    ];
    let hash = fnv(counts
        .iter()
        .chain(two_tier.assignment.owners())
        .map(|&w| w as u64));
    assert_eq!(
        hash, 0xad02_d6c8_0ad9_0aad,
        "rack-aware owners changed: {hash:#018x}"
    );

    let speeds = alternating_speeds(32);
    let weighted = planner
        .plan(
            &PlanRequest::single(&nn, &tasks, &placement)
                .weighted(&speeds)
                .seed(4),
        )
        .into_single()
        .expect("weighted single plan");
    let counts = [
        weighted.matched_files,
        weighted.filled_files,
        weighted.locality.local_tasks,
    ];
    let hash = fnv(counts
        .iter()
        .chain(weighted.assignment.owners())
        .map(|&w| w as u64));
    assert_eq!(
        hash, 0xdd7f_5eeb_a0e9_c388,
        "weighted owners changed: {hash:#018x}"
    );
}

#[test]
fn layout_requests_plan_rack_aware_and_weighted_like_namenode_requests() {
    // Every mode plans from the captured layout, so a request built on a
    // snapshot plans exactly what the namenode form of it does.
    let (nn, tasks, placement, racks) = half_placed_world();
    let snapshot = opass_core::capture_workload_layout(&nn, &tasks);
    let speeds = alternating_speeds(32);
    let planner = OpassPlanner::default();
    for seed in 0..4 {
        let two_tier = |request: PlanRequest<'_>| {
            planner
                .plan(&request.rack_aware(&racks).seed(seed))
                .into_two_tier()
                .expect("two-tier outcome")
        };
        let (want, got) = (
            two_tier(PlanRequest::single(&nn, &tasks, &placement)),
            two_tier(PlanRequest::single_from_layout(&snapshot, &placement)),
        );
        assert_eq!(got.assignment, want.assignment, "seed {seed}");
        assert_eq!(
            (got.node_matched, got.rack_matched, got.filled_files),
            (want.node_matched, want.rack_matched, want.filled_files),
            "seed {seed}"
        );

        let weighted = |request: PlanRequest<'_>| {
            planner
                .plan(&request.weighted(&speeds).seed(seed))
                .into_single()
                .expect("weighted single plan")
        };
        let (want, got) = (
            weighted(PlanRequest::single(&nn, &tasks, &placement)),
            weighted(PlanRequest::single_from_layout(&snapshot, &placement)),
        );
        assert_eq!(got.assignment, want.assignment, "seed {seed}");
        assert_eq!(
            (got.matched_files, got.filled_files, got.locality),
            (want.matched_files, want.filled_files, want.locality),
            "seed {seed}"
        );
    }
}
