//! Binomial distribution with numerically stable log-space evaluation.
//!
//! Section III of the paper reduces both the *remote access* and the
//! *imbalanced access* analyses to binomial tail probabilities with large
//! `n` (hundreds of chunks) and small `p` (`r/m`). Direct products of
//! factorials overflow long before that, so probabilities are computed in
//! log space via `ln n!`.

/// Natural log of `n!`, exact summation for small `n`, Stirling series
/// beyond (absolute error below 1e-10 for all `n`).
pub fn ln_factorial(n: u64) -> f64 {
    const EXACT_LIMIT: u64 = 256;
    if n < 2 {
        return 0.0;
    }
    if n <= EXACT_LIMIT {
        let mut acc = 0.0;
        for i in 2..=n {
            acc += (i as f64).ln();
        }
        return acc;
    }
    // Stirling's series: ln n! = n ln n - n + ln(2*pi*n)/2
    //                    + 1/(12n) - 1/(360 n^3) + 1/(1260 n^5)
    let nf = n as f64;
    let ln2pi = (2.0 * std::f64::consts::PI).ln();
    nf * nf.ln() - nf + 0.5 * (ln2pi + nf.ln()) + 1.0 / (12.0 * nf) - 1.0 / (360.0 * nf.powi(3))
        + 1.0 / (1260.0 * nf.powi(5))
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Returns `-inf` when `k > n` (the coefficient is zero).
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// A binomial distribution `Bin(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates `Bin(n, p)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p) && p.is_finite(),
            "binomial probability must be in [0,1], got {p}"
        );
        Binomial { n, p }
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Expected value `n * p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Probability mass `P(X = k)`.
    pub fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        // Degenerate endpoints avoid ln(0).
        if self.p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        let kf = k as f64;
        let nf = self.n as f64;
        // ln(1 - p) via ln_1p(-p) for accuracy near p = 0.
        let ln_pmf = ln_choose(self.n, k) + kf * self.p.ln() + (nf - kf) * (-self.p).ln_1p();
        ln_pmf.exp()
    }

    /// Cumulative distribution `P(X <= k)`.
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        let mut acc = 0.0;
        for i in 0..=k {
            acc += self.pmf(i);
        }
        acc.min(1.0)
    }

    /// Survival function `P(X > k)`.
    pub fn sf(&self, k: u64) -> f64 {
        // Sum the smaller tail for accuracy.
        if (k as f64) < self.mean() {
            (1.0 - self.cdf(k)).clamp(0.0, 1.0)
        } else {
            let mut acc = 0.0;
            let mut i = k + 1;
            while i <= self.n {
                acc += self.pmf(i);
                i += 1;
            }
            acc.clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_matches_exact_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120.0_f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(10) - 3628800.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn stirling_is_continuous_at_the_switch() {
        // Compare the Stirling branch against exact summation around the
        // crossover point.
        let exact = |n: u64| (2..=n).map(|i| (i as f64).ln()).sum::<f64>();
        for n in [257u64, 300, 512, 1000, 5000] {
            let err = (ln_factorial(n) - exact(n)).abs();
            assert!(err < 1e-9, "n={n} err={err}");
        }
    }

    #[test]
    fn ln_choose_small_cases() {
        assert!((ln_choose(5, 2) - 10.0_f64.ln()).abs() < 1e-12);
        assert!((ln_choose(10, 0)).abs() < 1e-12);
        assert!(ln_choose(3, 5).is_infinite());
    }

    #[test]
    fn pmf_sums_to_one() {
        let b = Binomial::new(512, 3.0 / 128.0);
        let total: f64 = (0..=512).map(|k| b.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn degenerate_distributions() {
        let zero = Binomial::new(10, 0.0);
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.pmf(1), 0.0);
        assert_eq!(zero.cdf(0), 1.0);
        let one = Binomial::new(10, 1.0);
        assert_eq!(one.pmf(10), 1.0);
        assert_eq!(one.sf(9), 1.0);
    }

    #[test]
    fn cdf_plus_sf_is_one() {
        let b = Binomial::new(100, 0.3);
        for k in [0u64, 1, 10, 30, 50, 99] {
            let s = b.cdf(k) + b.sf(k);
            assert!((s - 1.0).abs() < 1e-9, "k={k} s={s}");
        }
    }

    #[test]
    fn mean_and_variance() {
        let b = Binomial::new(512, 3.0 / 64.0);
        assert!((b.mean() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn paper_section_iii_a_probabilities() {
        // P(X > 5) for n=512 chunks, m in {64,128,256}. The paper prints
        // 81.09%, 21.43%, 1.64% — these match Bin(512, 1/m) (see the
        // `locality` module docs for the discrepancy with the formula as
        // written, which uses r/m).
        let cases = [(64u32, 0.8109), (128, 0.2143), (256, 0.0164)];
        for (m, expected) in cases {
            let b = Binomial::new(512, 1.0 / m as f64);
            let p = b.sf(5);
            assert!(
                (p - expected).abs() < 0.002,
                "m={m}: got {p:.4}, paper says {expected}"
            );
        }
        // m=512: the paper prints 0.46%; Bin(512, 1/512) actually gives
        // ~0.06%. Both are "essentially zero"; we assert ours is tiny.
        let p512 = Binomial::new(512, 1.0 / 512.0).sf(5);
        assert!(p512 < 0.005, "got {p512}");
    }

    #[test]
    fn pmf_matches_direct_computation_small_n() {
        // Cross-check the log-space path against exact arithmetic.
        let b = Binomial::new(12, 0.4);
        let choose = |n: u64, k: u64| -> f64 {
            let mut c = 1.0;
            for i in 0..k {
                c = c * (n - i) as f64 / (i + 1) as f64;
            }
            c
        };
        for k in 0..=12u64 {
            let exact = choose(12, k) * 0.4f64.powi(k as i32) * 0.6f64.powi((12 - k) as i32);
            assert!((b.pmf(k) - exact).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "probability must be in [0,1]")]
    fn rejects_bad_probability() {
        let _ = Binomial::new(10, 1.5);
    }
}
