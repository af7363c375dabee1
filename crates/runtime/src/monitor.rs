//! Balance metrics over per-node served bytes — the quantitative form of
//! the paper's Figures 1(a), 8 and 10 ("the monitor").
//!
//! The paper argues qualitatively from max/min spreads; these standard
//! indices make the balance claim scalar so sweeps and ablations can chart
//! it: Jain's fairness index (1 = perfectly even, 1/n = one node serves
//! everything), the Gini coefficient (0 = even, →1 = concentrated), and
//! the coefficient of variation.

/// Balance indices over a served-bytes (or served-chunks) vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceReport {
    /// Jain's fairness index `(Σx)² / (n·Σx²)`, in `(0, 1]`.
    pub jain_index: f64,
    /// Gini coefficient, in `[0, 1)`.
    pub gini: f64,
    /// Coefficient of variation `σ/μ` (0 when perfectly even).
    pub cov: f64,
}

impl BalanceReport {
    /// Computes the indices over `served` (one entry per node).
    ///
    /// Returns the perfectly-balanced report for empty or all-zero input
    /// (no data served means nothing is imbalanced).
    pub fn of(served: &[u64]) -> BalanceReport {
        let n = served.len();
        let total: u128 = served.iter().map(|&x| x as u128).sum();
        if n == 0 || total == 0 {
            return BalanceReport {
                jain_index: 1.0,
                gini: 0.0,
                cov: 0.0,
            };
        }
        let nf = n as f64;
        let totalf = total as f64;
        let mean = totalf / nf;

        let sum_sq: f64 = served.iter().map(|&x| (x as f64) * (x as f64)).sum();
        let jain_index = totalf * totalf / (nf * sum_sq);

        // Gini via the sorted formula: G = (2·Σ i·x_(i) / (n·Σx)) - (n+1)/n.
        let mut sorted: Vec<u64> = served.to_vec();
        sorted.sort_unstable();
        let weighted: f64 = sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
            .sum();
        let gini = (2.0 * weighted / (nf * totalf) - (nf + 1.0) / nf).max(0.0);

        let var: f64 = served
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / nf;
        let cov = var.sqrt() / mean;

        BalanceReport {
            jain_index,
            gini,
            cov,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_even_vector() {
        let r = BalanceReport::of(&[100, 100, 100, 100]);
        assert!((r.jain_index - 1.0).abs() < 1e-12);
        assert!(r.gini.abs() < 1e-12);
        assert!(r.cov.abs() < 1e-12);
    }

    #[test]
    fn single_hot_node() {
        let r = BalanceReport::of(&[400, 0, 0, 0]);
        assert!((r.jain_index - 0.25).abs() < 1e-12, "jain={}", r.jain_index);
        assert!(r.gini > 0.7);
        assert!(r.cov > 1.5);
    }

    #[test]
    fn empty_and_zero_are_balanced() {
        assert_eq!(BalanceReport::of(&[]).jain_index, 1.0);
        assert_eq!(BalanceReport::of(&[0, 0]).gini, 0.0);
    }

    #[test]
    fn ordering_matches_intuition() {
        let even = BalanceReport::of(&[10, 10, 10, 10]);
        let mild = BalanceReport::of(&[14, 10, 9, 7]);
        let wild = BalanceReport::of(&[30, 6, 3, 1]);
        assert!(mild.gini > even.gini && wild.gini > mild.gini);
        assert!(mild.jain_index < even.jain_index && wild.jain_index < mild.jain_index);
    }

    #[test]
    fn gini_is_scale_invariant() {
        let a = BalanceReport::of(&[1, 2, 3, 4]);
        let b = BalanceReport::of(&[100, 200, 300, 400]);
        assert!((a.gini - b.gini).abs() < 1e-12);
        assert!((a.jain_index - b.jain_index).abs() < 1e-12);
    }

    #[test]
    fn known_gini_value() {
        // Two nodes, one with everything: G = 1/2 for n = 2.
        let r = BalanceReport::of(&[0, 10]);
        assert!((r.gini - 0.5).abs() < 1e-12, "gini={}", r.gini);
    }
}
