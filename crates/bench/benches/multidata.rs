//! Algorithm 1 (multi-data matching) scaling benchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use opass_matching::{assign_multi_data, MatchingValues};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a matching-value table shaped like the paper's multi-input
/// workload: each task has up to nine non-zero process affinities
/// (three inputs × three replicas).
fn build_values(m: usize, n: usize, seed: u64) -> MatchingValues {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values = MatchingValues::new(m, n);
    let mb = 1u64 << 20;
    for t in 0..n {
        for _ in 0..9 {
            let p = rng.gen_range(0..m);
            let size = [30 * mb, 20 * mb, 10 * mb][rng.gen_range(0..3)];
            values.add(p, t, size);
        }
    }
    values
}

fn bench_multidata(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_data_algorithm1");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    // Up to the paper's 1024 nodes at 10 tasks per process — the overhead
    // claim of Section V-C2 needs the whole curve.
    for &(m, n) in &[
        (16usize, 160usize),
        (64, 640),
        (128, 1280),
        (256, 2560),
        (1024, 2048),
        (1024, 10240),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{n}")),
            &(m, n),
            |b, &(m, n)| {
                let values = build_values(m, n, 7);
                b.iter(|| assign_multi_data(&values))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_multidata);
criterion_main!(benches);
