//! Monte-Carlo validation of the Section III closed forms.
//!
//! The analytic models in [`crate::locality`] and [`crate::imbalance`] rest
//! on independence assumptions (sampling replica nodes *with* replacement,
//! treating every read as remote). This module simulates the actual protocol
//! — `r` *distinct* replica nodes per chunk, random task assignment, HDFS
//! prefer-local-else-random-replica reads — and produces empirical
//! distributions to compare against the theory. The agreement (verified in
//! tests) justifies using the closed forms in the figure harness.

use crate::locality::ClusterParams;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration for a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Cluster and dataset parameters.
    pub params: ClusterParams,
    /// Number of independent trials (placements + assignments).
    pub trials: u32,
    /// RNG seed; identical configs reproduce identical histograms.
    pub seed: u64,
}

/// Empirical distributions gathered from the trials.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloResult {
    /// `local_reads[k]` = number of (trial, process) observations in which a
    /// process read exactly `k` of its assigned chunks locally
    /// (theory: ≈ `Bin(n, r/m²)`).
    pub local_reads: Vec<u64>,
    /// `total_local[k]` = number of trials in which exactly `k` chunks were
    /// read locally across the whole application (theory: `Bin(n, r/m)`,
    /// the Section III-A formula as written).
    pub total_local: Vec<u64>,
    /// `served[k]` = number of (trial, node) observations in which a node
    /// served exactly `k` chunk requests.
    pub served: Vec<u64>,
    /// Total observations per histogram (trials × processes, trials × nodes).
    pub observations_local: u64,
    /// Total (trial, node) observations.
    pub observations_served: u64,
    /// Fraction of all reads that were served locally.
    pub local_fraction: f64,
}

impl MonteCarloResult {
    /// Empirical `P(Z <= k)` for the served-chunks distribution.
    pub fn served_cdf(&self, k: usize) -> f64 {
        cdf_of(&self.served, self.observations_served, k)
    }

    /// Empirical `P(total local reads <= k)` across trials.
    pub fn total_local_cdf(&self, k: usize) -> f64 {
        let trials: u64 = self.total_local.iter().sum();
        cdf_of(&self.total_local, trials, k)
    }
}

/// Wilson score interval for a binomial proportion at ~95% confidence —
/// the right interval for Monte-Carlo hit rates (never escapes `[0, 1]`,
/// behaves at the extremes where the normal approximation fails).
pub fn wilson_interval(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

fn cdf_of(hist: &[u64], total: u64, k: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let upto: u64 = hist.iter().take(k + 1).sum();
    upto as f64 / total as f64
}

/// SplitMix64 finalizer — the standard way to derive well-mixed per-stream
/// seeds from a base seed and a stream index.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed for trial `t`: each trial is an independent RNG stream.
fn trial_seed(seed: u64, trial: u32) -> u64 {
    splitmix64(seed ^ splitmix64(0x5EED_0000_0000_0000 ^ trial as u64))
}

/// Histograms and read totals summed over a run's trials.
struct Accum {
    local_hist: Vec<u64>,
    total_local_hist: Vec<u64>,
    served_hist: Vec<u64>,
    local_reads_total: u64,
    reads_total: u64,
}

impl Accum {
    fn new(n: usize) -> Self {
        Accum {
            local_hist: vec![0; n + 1],
            total_local_hist: vec![0; n + 1],
            served_hist: vec![0; n + 1],
            local_reads_total: 0,
            reads_total: 0,
        }
    }
}

/// Per-trial scratch buffers, reused across a run's trials.
struct Scratch {
    node_pool: Vec<usize>,
    local_count: Vec<u64>,
    served_count: Vec<u64>,
}

impl Scratch {
    fn new(m: usize) -> Self {
        Scratch {
            node_pool: (0..m).collect(),
            local_count: vec![0; m],
            served_count: vec![0; m],
        }
    }
}

/// One trial: random `r`-way placement on distinct nodes, random task
/// assignment, prefer-local-else-random-replica reads.
fn run_trial(params: &ClusterParams, rng: &mut StdRng, scratch: &mut Scratch, acc: &mut Accum) {
    let n = params.n_chunks as usize;
    let r = params.replication as usize;
    let m = params.cluster_size as usize;
    // Reset the pool to the identity permutation: a trial's output must
    // depend only on its own RNG stream, not on which trials (if any) the
    // same scratch buffer served before.
    for (i, slot) in scratch.node_pool.iter_mut().enumerate() {
        *slot = i;
    }
    scratch.local_count.iter_mut().for_each(|c| *c = 0);
    scratch.served_count.iter_mut().for_each(|c| *c = 0);

    let mut hs = Vec::with_capacity(r);
    for _ in 0..n {
        // r-way placement on distinct nodes (HDFS random placement).
        scratch.node_pool.shuffle(rng);
        hs.clear();
        hs.extend_from_slice(&scratch.node_pool[..r]);
        hs.sort_unstable();

        // Random task assignment: chunk -> process (process rank == node).
        let proc_node = rng.gen_range(0..m);
        acc.reads_total += 1;
        if hs.contains(&proc_node) {
            scratch.local_count[proc_node] += 1;
            scratch.served_count[proc_node] += 1;
            acc.local_reads_total += 1;
        } else {
            let source = hs[rng.gen_range(0..hs.len())];
            scratch.served_count[source] += 1;
        }
    }
    let trial_local: u64 = scratch.local_count.iter().sum();
    acc.total_local_hist[trial_local as usize] += 1;
    for &c in &scratch.local_count {
        acc.local_hist[c as usize] += 1;
    }
    for &c in &scratch.served_count {
        acc.served_hist[c as usize] += 1;
    }
}

fn finish(config: &MonteCarloConfig, acc: Accum) -> MonteCarloResult {
    let observations = config.trials as u64 * config.params.cluster_size as u64;
    MonteCarloResult {
        local_reads: acc.local_hist,
        total_local: acc.total_local_hist,
        served: acc.served_hist,
        observations_local: observations,
        observations_served: observations,
        local_fraction: if acc.reads_total == 0 {
            0.0
        } else {
            acc.local_reads_total as f64 / acc.reads_total as f64
        },
    }
}

/// Runs the simulation described in Section III: random `r`-way placement on
/// distinct nodes, one process per node, chunks assigned to processes
/// uniformly at random, reads served locally when possible and otherwise by
/// a uniformly random replica holder.
///
/// Trials use independent per-trial RNG streams (seed split via SplitMix64).
pub fn run(config: &MonteCarloConfig) -> MonteCarloResult {
    let n = config.params.n_chunks as usize;
    let m = config.params.cluster_size as usize;
    let mut acc = Accum::new(n);
    let mut scratch = Scratch::new(m);
    for t in 0..config.trials {
        let mut rng = StdRng::seed_from_u64(trial_seed(config.seed, t));
        run_trial(&config.params, &mut rng, &mut scratch, &mut acc);
    }
    finish(config, acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imbalance::ImbalanceModel;
    use crate::locality::LocalityModel;

    fn config(m: u32, trials: u32) -> MonteCarloConfig {
        MonteCarloConfig {
            params: ClusterParams::new(512, 3, m),
            trials,
            seed: 0x0A55 ^ 7,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&config(64, 5));
        let b = run(&config(64, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn local_fraction_is_about_r_over_m() {
        let res = run(&config(128, 40));
        let expected = 3.0 / 128.0;
        assert!(
            (res.local_fraction - expected).abs() < 0.01,
            "got {} want ~{expected}",
            res.local_fraction
        );
    }

    #[test]
    fn total_local_reads_match_formula_as_written() {
        // Mean total local reads should be n * r/m = 512 * 3/128 = 12.
        let res = run(&config(128, 60));
        let trials: u64 = res.total_local.iter().sum();
        let weighted: u64 = (0u64..).zip(&res.total_local).map(|(k, &c)| k * c).sum();
        let mean = weighted as f64 / trials as f64;
        assert!((mean - 12.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn histograms_conserve_observations() {
        let cfg = config(64, 10);
        let res = run(&cfg);
        let total_local: u64 = res.local_reads.iter().sum();
        let total_served: u64 = res.served.iter().sum();
        assert_eq!(total_local, res.observations_local);
        assert_eq!(total_served, res.observations_served);
        // Served chunks across nodes must equal chunks per trial.
        let served_chunks: u64 = res
            .served
            .iter()
            .enumerate()
            .map(|(k, &c)| k as u64 * c)
            .sum();
        assert_eq!(served_chunks, 512 * 10);
    }

    #[test]
    fn empirical_per_process_local_cdf_tracks_theory() {
        // Per-process local reads follow ~Bin(n, r/m^2); the theory samples
        // replica nodes with replacement while the simulation places on
        // distinct nodes, so allow a small tolerance.
        let cfg = config(128, 60);
        let res = run(&cfg);
        let dist = LocalityModel::new(cfg.params).per_process_distribution();
        for k in [0usize, 1, 2, 3] {
            let emp = cdf_of(&res.local_reads, res.observations_local, k);
            let theory = dist.cdf(k as u64);
            assert!(
                (emp - theory).abs() < 0.04,
                "k={k}: empirical={emp:.4} theory={theory:.4}"
            );
        }
    }

    #[test]
    fn empirical_total_local_cdf_tracks_formula_as_written() {
        let cfg = config(128, 80);
        let res = run(&cfg);
        let dist = LocalityModel::new(cfg.params).distribution();
        for k in [6usize, 10, 12, 16] {
            let emp = res.total_local_cdf(k);
            let theory = dist.cdf(k as u64);
            assert!(
                (emp - theory).abs() < 0.12,
                "k={k}: empirical={emp:.4} theory={theory:.4}"
            );
        }
    }

    #[test]
    fn empirical_served_cdf_tracks_theory() {
        let cfg = config(128, 60);
        let res = run(&cfg);
        let model = ImbalanceModel::new(cfg.params);
        for k in [0usize, 1, 4, 8, 12] {
            let emp = res.served_cdf(k);
            let theory = model.served_cdf(k as u64);
            assert!(
                (emp - theory).abs() < 0.04,
                "k={k}: empirical={emp:.4} theory={theory:.4}"
            );
        }
    }

    #[test]
    fn wilson_interval_properties() {
        // Contains the point estimate, stays in [0,1], and narrows with n.
        let (lo, hi) = wilson_interval(30, 100);
        assert!(lo < 0.3 && 0.3 < hi);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        let (lo2, hi2) = wilson_interval(300, 1000);
        assert!(hi2 - lo2 < hi - lo, "more trials must narrow the interval");
        // Extremes behave.
        let (lo0, _) = wilson_interval(0, 50);
        assert_eq!(lo0, 0.0);
        let (_, hi1) = wilson_interval(50, 50);
        assert_eq!(hi1, 1.0);
        assert_eq!(wilson_interval(0, 0), (0.0, 1.0));
    }

    #[test]
    fn ci_brackets_the_theory() {
        let cfg = config(128, 60);
        let res = run(&cfg);
        let theory = crate::imbalance::ImbalanceModel::new(cfg.params).served_cdf(4);
        let hits: u64 = res.served.iter().take(5).sum();
        let (lo, hi) = wilson_interval(hits, res.observations_served);
        assert!(
            lo <= theory && theory <= hi,
            "theory {theory} outside CI [{lo}, {hi}]"
        );
    }

    #[test]
    fn imbalance_appears_in_simulation() {
        // Within a single trial at m=128, some nodes serve many chunks and
        // some serve none — the paper's Figure 1 in miniature.
        let res = run(&config(128, 30));
        assert!(res.served[0] > 0, "some nodes should serve nothing");
        let heavy: u64 = res.served.iter().skip(9).sum();
        assert!(heavy > 0, "some nodes should serve >8 chunks");
    }
}
