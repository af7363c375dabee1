//! Figure 3 and the Section III numbers — the probabilistic analysis.

use crate::report::FigureReport;
use opass_core::analysis::{
    run_montecarlo, ClusterParams, ImbalanceModel, LocalityModel, MonteCarloConfig,
};
use std::io;
use std::path::Path;

/// Regenerates Figure 3: CDF of the number of chunks read locally for
/// cluster sizes 64–512, under both the paper's published calibration and
/// the formula as written, cross-checked by Monte-Carlo simulation.
pub(crate) fn fig3(out: &Path, seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("fig3");
    let cluster_sizes = [64u32, 128, 256, 512];
    let k_max = 20u64;

    let mut csv = report.csv(
        out,
        "fig3_local_read_cdf",
        &["m", "k", "cdf_published", "cdf_formula", "cdf_montecarlo"],
    )?;

    for &m in &cluster_sizes {
        let params = ClusterParams::paper_with_cluster(m);
        let model = LocalityModel::new(params);
        let published = model.published_distribution();
        let formula = model.distribution();
        let mc = run_montecarlo(&MonteCarloConfig {
            params,
            trials: 40,
            seed: seed ^ u64::from(m),
        });
        for k in 0..=k_max {
            csv.row(&[
                m.to_string(),
                k.to_string(),
                format!("{:.6}", published.cdf(k)),
                format!("{:.6}", formula.cdf(k)),
                format!("{:.6}", mc.total_local_cdf(k as usize)),
            ])?;
        }
    }

    // Headline P(X > 5) numbers.
    let paper = [(64u32, 81.09), (128, 21.43), (256, 1.64), (512, 0.46)];
    for (m, paper_pct) in paper {
        let model = LocalityModel::new(ClusterParams::paper_with_cluster(m));
        report.line(format!(
            "P(X>5) m={m}: published-calibration {:.2}% (paper prints {paper_pct}%), formula-as-written {:.2}%",
            model.published_p_more_than(5) * 100.0,
            model.p_more_than(5) * 100.0,
        ));
    }
    Ok(report)
}

/// Regenerates the Section III-B imbalance numbers.
pub(crate) fn sec3b(out: &Path, _seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("sec3b");
    let model = ImbalanceModel::new(ClusterParams::new(512, 3, 128));

    let mut csv = report.csv(out, "sec3b_served_cdf", &["k", "p_serve_at_most_k"])?;
    for (k, p) in model.served_cdf_series(20) {
        csv.row(&[k.to_string(), format!("{p:.6}")])?;
    }

    report.line(format!(
        "expected nodes serving <=1 chunk: {:.1} (paper: 11)",
        model.paper_expected_light_nodes()
    ));
    report.line(format!(
        "expected nodes serving >=8 chunks: {:.1} (paper: 6)",
        model.paper_expected_heavy_nodes()
    ));
    report.line(format!(
        "expected served per node: {:.1} chunks; heavy nodes serve >=8x the light ones",
        model.expected_served()
    ));
    report.line(format!(
        "expected hottest node serves {:.1} chunks = {:.1}x the mean (order statistic; sets the barrier wait)",
        model.expected_max_served(),
        model.expected_imbalance_factor()
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_matches_published_percentages() {
        let dir = std::env::temp_dir().join("opass-fig3-test");
        let report = fig3(&dir, 1).unwrap();
        assert!(report.summary[0].contains("81.09%") || report.summary[0].contains("81.1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sec3b_reports_light_and_heavy_nodes() {
        let dir = std::env::temp_dir().join("opass-sec3b-test");
        let report = sec3b(&dir, 1).unwrap();
        assert_eq!(report.summary.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
