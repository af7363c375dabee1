//! Max-flow benchmarks: the single-data matcher's in-place Dinic on
//! Opass-shaped locality graphs up to the planner's real sizes, plus the
//! incremental matcher's batched repair under replica churn against a
//! from-scratch solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use opass_matching::{BipartiteGraph, IncrementalMatcher, Objective, SingleDataMatcher};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn bench_maxflow(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxflow");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    // The two largest are the planner's real shapes — a `plan_mix` cold
    // plan and the session-start probe.
    for &(m, n) in &[
        (16usize, 160usize),
        (64, 640),
        (128, 1280),
        (128, 8192),
        (128, 32768),
    ] {
        // Through the matcher, as the planner calls it.
        let graph = build_graph(m, n, 3, 42);
        group.bench_with_input(
            BenchmarkId::new("dinic", format!("{m}x{n}")),
            &graph,
            |b, graph| b.iter(|| SingleDataMatcher::default().flow_owners(graph)),
        );
    }
    group.finish();
}

/// An Opass-shaped locality graph: `n` files with `r` replicas each over
/// `m` processes (one per node).
fn build_graph(m: usize, n: usize, r: usize, seed: u64) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = BipartiteGraph::new(m, n);
    let mut nodes: Vec<usize> = (0..m).collect();
    for f in 0..n {
        nodes.shuffle(&mut rng);
        for &p in &nodes[..r.min(m)] {
            g.add_edge(p, f, 64);
        }
    }
    g
}

/// One replica-churn batch staged against the matcher: for `touched`
/// files, drop one present edge and add one absent edge.
fn stage_churn(inc: &mut IncrementalMatcher, touched: usize, rng: &mut StdRng) {
    let m = inc.graph().n_procs();
    let n = inc.graph().n_files();
    for _ in 0..touched {
        let f = rng.gen_range(0..n);
        let first = inc.graph().procs_of(f).next();
        if let Some((p, _)) = first {
            inc.stage_remove_edge(p, f);
        }
        for _ in 0..8 {
            let p = rng.gen_range(0..m);
            if inc.graph().weight(p, f).is_none() {
                inc.stage_add_edge(p, f, 64);
                break;
            }
        }
    }
}

/// Batched incremental repair vs a from-scratch Dinic solve on the same
/// churned instance, across churn rates spanning three decades.
fn bench_incremental_repair(c: &mut Criterion) {
    let (m, n, r) = (256usize, 2048usize, 3usize);
    let mut group = c.benchmark_group("incremental_repair");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    for &(label, fraction) in &[("0.1pct", 0.001f64), ("1pct", 0.01), ("10pct", 0.1)] {
        let touched = ((n as f64 * fraction) as usize).max(1);
        group.bench_with_input(
            BenchmarkId::new("repair", label),
            &touched,
            |b, &touched| {
                b.iter_batched(
                    || {
                        (
                            IncrementalMatcher::new(
                                build_graph(m, n, r, 42),
                                Objective::MatchCount,
                            ),
                            StdRng::seed_from_u64(7),
                        )
                    },
                    |(mut inc, mut rng)| {
                        stage_churn(&mut inc, touched, &mut rng);
                        inc.repair_batch();
                        inc.matched_count()
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("scratch", label),
            &touched,
            |b, &touched| {
                b.iter_batched(
                    || {
                        // Pre-churn the graph so both arms solve the same
                        // instance; only the solve is timed.
                        let mut inc = IncrementalMatcher::new(
                            build_graph(m, n, r, 42),
                            Objective::MatchCount,
                        );
                        let mut rng = StdRng::seed_from_u64(7);
                        stage_churn(&mut inc, touched, &mut rng);
                        inc.graph().clone()
                    },
                    |graph| {
                        SingleDataMatcher::default()
                            .assign(&graph, &mut StdRng::seed_from_u64(0))
                            .matched_files
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_maxflow, bench_incremental_repair);
criterion_main!(benches);
