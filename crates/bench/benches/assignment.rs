//! End-to-end planning cost — the Section V-C overhead measurement.
//!
//! Benches the full Opass pipeline (layout snapshot → graph build →
//! matching → assignment) for fig7-sized problems, for both the single-
//! and multi-data planners.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use opass_core::{OpassPlanner, PlanRequest};
use opass_dfs::{DfsConfig, Namenode, Placement};
use opass_runtime::ProcessPlacement;
use opass_workloads::{multi as multi_wl, single as single_wl, MultiDataConfig, SingleDataConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_single_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_single_data");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    for &m in &[16usize, 64, 128, 256] {
        let mut nn = Namenode::new(m, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(m as u64);
        let cfg = SingleDataConfig {
            n_procs: m,
            chunks_per_process: 10,
            chunk_size: 64 << 20,
        };
        let (_, workload) = single_wl::generate(&mut nn, &cfg, &Placement::Random, &mut rng);
        let placement = ProcessPlacement::one_per_node(m);
        group.bench_with_input(BenchmarkId::from_parameter(format!("m{m}")), &m, |b, _| {
            let planner = OpassPlanner::default();
            b.iter(|| planner.plan(&PlanRequest::single(&nn, &workload, &placement).seed(1)))
        });
    }
    group.finish();
}

fn bench_multi_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_multi_data");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    for &m in &[16usize, 64, 128] {
        let mut nn = Namenode::new(m, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(m as u64);
        let cfg = MultiDataConfig {
            n_tasks: m * 10,
            ..Default::default()
        };
        let (_, workload) = multi_wl::generate(&mut nn, &cfg, &Placement::Random, &mut rng);
        let placement = ProcessPlacement::one_per_node(m);
        group.bench_with_input(BenchmarkId::from_parameter(format!("m{m}")), &m, |b, _| {
            let planner = OpassPlanner::default();
            b.iter(|| planner.plan(&PlanRequest::multi(&nn, &workload, &placement)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_plan, bench_multi_plan);
criterion_main!(benches);
