//! Remote-access pattern analysis (paper Section III-A, Figure 3).
//!
//! With `n` chunks randomly placed `r`-way on an `m`-node cluster and tasks
//! randomly assigned to the parallel processes, the number of chunks read
//! *locally* across the whole application is `X ~ Bin(n, r/m)`: each chunk
//! has `r` of `m` nodes holding a copy, so the probability that the reading
//! process happens to sit on one of them is `r/m`. That is the formula the
//! paper states, exposed here as [`LocalityModel::distribution`].
//!
//! **Published-number discrepancy.** The percentages the paper prints for
//! Figure 3 — `P(X > 5)` = 81.09%, 21.43%, 1.64% for m = 64, 128, 256 — do
//! *not* follow from `Bin(512, 3/m)` (whose means are 24, 12, 6, making
//! `P(X > 5)` ≈ 1 at m = 64). They match `Bin(512, 1/m)` exactly, i.e. the
//! authors appear to have evaluated their formula with `r = 1` (equivalently
//! the per-node served-chunk marginal of Section III-B). Both variants are
//! provided: [`LocalityModel::distribution`] (formula as written) and
//! [`LocalityModel::published_distribution`] (reproduces the printed
//! numbers). EXPERIMENTS.md records the comparison. Either way the paper's
//! conclusion stands: locality decays quickly as the cluster grows.

use crate::binomial::Binomial;

/// Cluster/workload parameters shared by the Section III models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterParams {
    /// Number of chunks in the dataset (`n`).
    pub n_chunks: u64,
    /// Replication factor (`r`, HDFS default 3).
    pub replication: u32,
    /// Number of cluster nodes (`m`).
    pub cluster_size: u32,
}

impl ClusterParams {
    /// Creates the parameter set, validating `r <= m` and non-degeneracy.
    pub fn new(n_chunks: u64, replication: u32, cluster_size: u32) -> Self {
        assert!(n_chunks > 0, "dataset must contain at least one chunk");
        assert!(replication >= 1, "replication factor must be at least 1");
        assert!(
            replication <= cluster_size,
            "replication {replication} cannot exceed cluster size {cluster_size}"
        );
        ClusterParams {
            n_chunks,
            replication,
            cluster_size,
        }
    }

    /// The paper's running configuration: 512 chunks (32 GB at 64 MB),
    /// 3-way replication, on a cluster of `m` nodes.
    pub fn paper_with_cluster(cluster_size: u32) -> Self {
        ClusterParams::new(512, 3, cluster_size)
    }

    /// Probability that a random chunk has a replica on a given node
    /// (`r / m`).
    pub fn p_local(&self) -> f64 {
        f64::from(self.replication) / f64::from(self.cluster_size)
    }
}

/// Distribution of the number of chunks a process can read locally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityModel {
    params: ClusterParams,
}

impl LocalityModel {
    /// Builds the model for the given parameters.
    pub fn new(params: ClusterParams) -> Self {
        LocalityModel { params }
    }

    /// The parameters behind the model.
    pub fn params(&self) -> ClusterParams {
        self.params
    }

    /// The `Bin(n, r/m)` distribution of application-wide local reads — the
    /// formula as written in Section III-A.
    pub fn distribution(&self) -> Binomial {
        Binomial::new(self.params.n_chunks, self.params.p_local())
    }

    /// The `Bin(n, 1/m)` distribution that reproduces the paper's *printed*
    /// Figure 3 numbers (see the module docs for the discrepancy).
    pub fn published_distribution(&self) -> Binomial {
        Binomial::new(
            self.params.n_chunks,
            1.0 / f64::from(self.params.cluster_size),
        )
    }

    /// `P(X > k)` under the published calibration (`Bin(n, 1/m)`).
    pub fn published_p_more_than(&self, k: u64) -> f64 {
        self.published_distribution().sf(k)
    }

    /// Approximate distribution of local reads for a *single* process under
    /// random task assignment: a chunk is assigned to this process with
    /// probability `1/m` and is then local with probability `r/m`, giving
    /// `Bin(n, r/m²)`. Cross-validated by the Monte-Carlo module.
    pub fn per_process_distribution(&self) -> Binomial {
        let m = f64::from(self.params.cluster_size);
        Binomial::new(
            self.params.n_chunks,
            f64::from(self.params.replication) / (m * m),
        )
    }

    /// `P(X <= k)`: probability of reading at most `k` chunks locally.
    pub fn cdf(&self, k: u64) -> f64 {
        self.distribution().cdf(k)
    }

    /// `P(X > k)`: probability of reading more than `k` chunks locally.
    pub fn p_more_than(&self, k: u64) -> f64 {
        self.distribution().sf(k)
    }

    /// Expected number of locally read chunks.
    pub fn expected_local(&self) -> f64 {
        self.distribution().mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_local_is_r_over_m() {
        let p = ClusterParams::new(512, 3, 128);
        assert!((p.p_local() - 3.0 / 128.0).abs() < 1e-15);
    }

    #[test]
    fn paper_headline_numbers_published_calibration() {
        // Section III-A prints P(X > 5) = 81.09%, 21.43%, 1.64% for
        // m = 64, 128, 256; these follow from the published calibration.
        let expect = [(64, 0.8109), (128, 0.2143), (256, 0.0164)];
        for (m, want) in expect {
            let model = LocalityModel::new(ClusterParams::paper_with_cluster(m));
            let got = model.published_p_more_than(5);
            assert!((got - want).abs() < 2e-3, "m={m}: got {got:.4} want {want}");
        }
        // m = 512: the paper prints 0.46%; the calibration gives ~0.06%.
        let model = LocalityModel::new(ClusterParams::paper_with_cluster(512));
        assert!(model.published_p_more_than(5) < 0.005);
    }

    #[test]
    fn formula_as_written_gives_higher_locality() {
        // Bin(n, r/m) has r times the mean of the published Bin(n, 1/m).
        for m in [64u32, 128, 256, 512] {
            let model = LocalityModel::new(ClusterParams::paper_with_cluster(m));
            let written = model.distribution().mean();
            let published = model.published_distribution().mean();
            assert!((written - 3.0 * published).abs() < 1e-9, "m={m}");
        }
    }

    #[test]
    fn paper_m128_at_least_nine_is_about_two_percent() {
        // "with a cluster size m = 128, the probability of reading more
        // than 9 chunks locally is about 2%" — holds for P(X >= 9) under
        // the published calibration (mean 4).
        let model = LocalityModel::new(ClusterParams::paper_with_cluster(128));
        let p = model.published_p_more_than(8);
        assert!(p > 0.01 && p < 0.03, "got {p}");
    }

    #[test]
    fn locality_decays_with_cluster_size() {
        for published in [false, true] {
            let p5: Vec<f64> = [64, 128, 256, 512]
                .iter()
                .map(|&m| {
                    let model = LocalityModel::new(ClusterParams::paper_with_cluster(m));
                    if published {
                        model.published_p_more_than(5)
                    } else {
                        model.p_more_than(5)
                    }
                })
                .collect();
            for w in p5.windows(2) {
                assert!(w[1] < w[0], "P(X>5) must decrease with m: {p5:?}");
            }
        }
    }

    #[test]
    fn expected_local_reads_scale() {
        // 512 chunks, r/m = 3/64: a process expects 24 local chunks.
        let model = LocalityModel::new(ClusterParams::paper_with_cluster(64));
        assert!((model.expected_local() - 24.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot exceed cluster size")]
    fn rejects_replication_above_cluster() {
        let _ = ClusterParams::new(512, 5, 4);
    }
}
