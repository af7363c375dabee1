//! Arena-structure microbenchmarks: one criterion group per flat
//! structure the solver hot path runs on, plus the repair kernel that
//! composes them.
//!
//! * `adj_pool` — [`AdjPool`] sorted-span insert/remove churn and probe
//!   scans, the operations behind every `stage_*_edge` and neighbor walk.
//! * `owned_list` — [`OwnedList`] intrusive-chain link/unlink/iterate
//!   and the dense `rebuild_from` write-back path.
//! * `graph_churn` — the same churn through [`BipartiteGraph`], which
//!   mirrors every edit into both side's pools.
//! * `repair` — [`IncrementalMatcher::repair_batch`] on an
//!   island-partitioned graph at 10⁵ chunks after a churn batch.

use criterion::{criterion_group, criterion_main, Criterion};
use opass_matching::{AdjPool, BipartiteGraph, IncrementalMatcher, Objective, OwnedList};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
}

/// An `AdjPool` with `n` vertices of degree `deg`, keys drawn from
/// `0..key_space`.
fn build_pool(n: usize, deg: usize, key_space: u32, seed: u64) -> AdjPool {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = AdjPool::with_vertices(n);
    for v in 0..n {
        while pool.len_of(v) < deg {
            pool.insert(v, rng.gen_range(0..key_space), 64);
        }
    }
    pool
}

fn bench_adj_pool(c: &mut Criterion) {
    let (n, deg, key_space) = (10_000usize, 3usize, 1024u32);
    let mut group = c.benchmark_group("adj_pool");
    configure(&mut group);
    group.bench_function(&format!("insert_remove/{n}x{deg}"), |b| {
        b.iter_batched(
            || (build_pool(n, deg, key_space, 42), StdRng::seed_from_u64(7)),
            |(mut pool, mut rng)| {
                // One churn pass: every vertex loses one key, gains one.
                for v in 0..n {
                    let keys = pool.keys_of(v);
                    if let Some(&k) = keys.first() {
                        pool.remove(v, k);
                    }
                    pool.insert(v, rng.gen_range(0..key_space), 64);
                }
                pool.total_len()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function(&format!("probe_scan/{n}x{deg}"), |b| {
        let pool = build_pool(n, deg, key_space, 42);
        b.iter(|| {
            let mut hits = 0usize;
            for v in 0..n {
                for &k in pool.keys_of(v) {
                    if pool.get(v, k).is_some() {
                        hits += 1;
                    }
                }
            }
            hits
        })
    });
    group.finish();
}

fn bench_owned_list(c: &mut Criterion) {
    let (n_procs, n_files) = (1024usize, 100_000usize);
    // A balanced owner vector: file f owned by proc f % n_procs.
    let owner: Vec<u32> = (0..n_files).map(|f| (f % n_procs) as u32).collect();
    let mut group = c.benchmark_group("owned_list");
    configure(&mut group);
    group.bench_function(&format!("rebuild_from/{n_procs}x{n_files}"), |b| {
        b.iter(|| OwnedList::rebuild_from(&owner, n_procs))
    });
    group.bench_function(&format!("iterate/{n_procs}x{n_files}"), |b| {
        let list = OwnedList::rebuild_from(&owner, n_procs);
        b.iter(|| {
            let mut seen = 0usize;
            for p in 0..n_procs as u32 {
                seen += list.iter(p).count();
            }
            seen
        })
    });
    group.bench_function(&format!("relink_churn/{n_procs}x{n_files}"), |b| {
        b.iter_batched(
            || OwnedList::rebuild_from(&owner, n_procs),
            |mut list| {
                // Move every 97th file to the next proc's chain.
                for f in (0..n_files as u32).step_by(97) {
                    let p = f % n_procs as u32;
                    list.remove(p, f);
                    list.insert((p + 1) % n_procs as u32, f);
                }
                list.head_of(0)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// An island-partitioned locality graph: `islands` blocks of
/// `procs_per_island` procs, each file wired to `r` procs of its island.
fn island_graph(
    islands: usize,
    procs_per_island: usize,
    n_files: usize,
    r: usize,
    seed: u64,
) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = islands * procs_per_island;
    let mut g = BipartiteGraph::new(m, n_files);
    for f in 0..n_files {
        let base = (f % islands) * procs_per_island;
        let mut placed = 0usize;
        while placed < r {
            let p = base + rng.gen_range(0..procs_per_island);
            if g.weight(p, f).is_none() {
                g.add_edge(p, f, 64);
                placed += 1;
            }
        }
    }
    g
}

fn bench_graph_churn(c: &mut Criterion) {
    let (islands, per, n, r) = (64usize, 16usize, 100_000usize, 3usize);
    let mut group = c.benchmark_group("graph_churn");
    configure(&mut group);
    group.bench_function(&format!("mirror_edit/{n}"), |b| {
        b.iter_batched(
            || {
                (
                    island_graph(islands, per, n, r, 42),
                    StdRng::seed_from_u64(7),
                )
            },
            |(mut g, mut rng)| {
                // 1% of files: drop one edge, add one inside the island.
                for f in (0..n).step_by(100) {
                    let base = (f % islands) * per;
                    let first = g.procs_of(f).next();
                    if let Some((p, _)) = first {
                        g.remove_edge(p, f);
                    }
                    for _ in 0..8 {
                        let p = base + rng.gen_range(0..per);
                        if g.weight(p, f).is_none() {
                            g.add_edge(p, f, 64);
                            break;
                        }
                    }
                }
                g.edge_count()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Stages a 0.1% churn batch against the matcher, island-local.
fn stage_island_churn(inc: &mut IncrementalMatcher, islands: usize, per: usize, rng: &mut StdRng) {
    let n = inc.graph().n_files();
    for f in (0..n).step_by(1000) {
        let base = (f % islands) * per;
        let first = inc.graph().procs_of(f).next();
        if let Some((p, _)) = first {
            inc.stage_remove_edge(p, f);
        }
        for _ in 0..8 {
            let p = base + rng.gen_range(0..per);
            if inc.graph().weight(p, f).is_none() {
                inc.stage_add_edge(p, f, 64);
                break;
            }
        }
    }
}

fn bench_repair(c: &mut Criterion) {
    let (islands, per, n, r) = (64usize, 16usize, 100_000usize, 3usize);
    let mut group = c.benchmark_group("repair");
    configure(&mut group);
    group.bench_function(&format!("batch/{n}"), |b| {
        b.iter_batched(
            || {
                let mut inc = IncrementalMatcher::new(
                    island_graph(islands, per, n, r, 42),
                    Objective::MatchCount,
                );
                let mut rng = StdRng::seed_from_u64(7);
                stage_island_churn(&mut inc, islands, per, &mut rng);
                inc
            },
            |mut inc| {
                inc.repair_batch();
                inc.matched_count()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_adj_pool,
    bench_owned_list,
    bench_graph_churn,
    bench_repair
);
criterion_main!(benches);
