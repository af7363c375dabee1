//! Figure 12 — ParaView with Opass.
//!
//! The real-application test: multi-block rendering over a 640-sub-file
//! library, 64 sub-files (~56 MB each) per rendering step. The paper traces
//! every vtkFileSeriesReader call and reports, over 5 runs, average read
//! times of 5.48 s (σ 1.339) without Opass vs 3.07 s (σ 0.316) with, and
//! total execution times of ~167 s vs ~98 s.

use super::trace_csv;
use crate::report::{secs, FigureReport};
use opass_core::simio::Summary;
use opass_core::{ClusterSpec, Experiment, ParaView, Strategy};
use std::io;
use std::path::Path;

fn paraview_at(seed: u64) -> ParaView {
    ParaView {
        cluster: ClusterSpec {
            n_nodes: 64,
            seed,
            ..ParaView::default().cluster
        },
        ..Default::default()
    }
}

/// Regenerates Figure 12 plus the total-execution-time comparison.
pub(crate) fn fig12(out: &Path, seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("fig12");

    // Trace one run per strategy for the figure...
    let experiment = paraview_at(seed);
    let base = experiment
        .run(Strategy::RankInterval)
        .expect("baseline supported");
    let opass = experiment.run(Strategy::Opass).expect("opass supported");

    trace_csv(
        &mut report,
        out,
        "fig12_paraview_read_trace",
        "read_seconds",
        &[(Strategy::RankInterval, &base), (Strategy::Opass, &opass)],
    )?;

    // ...and 5 seeded runs (as the paper does) for the execution-time
    // comparison.
    let mut base_makespans = Vec::new();
    let mut opass_makespans = Vec::new();
    for i in 0..5u64 {
        let experiment = paraview_at(seed ^ (i + 1));
        base_makespans.push(
            experiment
                .run(Strategy::RankInterval)
                .expect("baseline supported")
                .result
                .makespan,
        );
        opass_makespans.push(
            experiment
                .run(Strategy::Opass)
                .expect("opass supported")
                .result
                .makespan,
        );
    }

    let bs = base.result.io_summary();
    let os = opass.result.io_summary();
    report.line(format!(
        "read time without Opass: avg {} s sigma {} (paper: 5.48 sigma 1.339)",
        secs(bs.mean),
        secs(bs.stddev)
    ));
    report.line(format!(
        "read time with Opass:    avg {} s sigma {} (paper: 3.07 sigma 0.316)",
        secs(os.mean),
        secs(os.stddev)
    ));
    let base_avg = Summary::of(&base_makespans).mean;
    let opass_avg = Summary::of(&opass_makespans).mean;
    report.line(format!(
        "total execution over 5 runs: without {} s, with {} s (paper: ~167 vs ~98)",
        secs(base_avg),
        secs(opass_avg)
    ));
    report.line(format!(
        "fastest single read without Opass: {} s (paper: 2.63 s best case)",
        secs(bs.min)
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_scale() {
        let e = ParaView::default();
        assert_eq!(e.workload.blocks_per_step, 64);
        assert_eq!(e.workload.library_size, 640);
    }

    #[test]
    fn step_makespans_cover_every_rendering_step() {
        let e = ParaView {
            cluster: ClusterSpec {
                n_nodes: 8,
                seed: 3,
                ..ParaView::default().cluster
            },
            workload: opass_core::workloads::ParaViewConfig {
                library_size: 32,
                blocks_per_step: 8,
                n_steps: 2,
                ..Default::default()
            },
        };
        let run = e.run(Strategy::Opass).unwrap();
        assert_eq!(run.step_makespans.len(), 2);
        let total: f64 = run.step_makespans.iter().sum();
        assert!((total - run.result.makespan).abs() < 1e-9);
    }
}
