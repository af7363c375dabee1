//! Figures 9 and 10 — Parallel Multi-Data Access.
//!
//! 64-node cluster, 640 tasks, each with a 30 MB, a 20 MB and a 10 MB input
//! from three different datasets. Figure 9 traces per-operation I/O times
//! (default vs Opass Algorithm 1); Figure 10 shows data served per node.
//! The improvement is real but smaller than the single-data case because a
//! task's three inputs rarely share a node — part of the data must travel.

use super::{served_csv, trace_csv};
use crate::report::{mb, secs, FigureReport};
use opass_core::{ClusterSpec, Experiment, MultiData, Strategy};
use std::io;
use std::path::Path;

/// Regenerates Figures 9 and 10.
pub(crate) fn fig9_fig10(out: &Path, seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("fig9+fig10");
    let experiment = MultiData {
        cluster: ClusterSpec {
            n_nodes: 64,
            seed,
            ..MultiData::default().cluster
        },
        tasks_per_process: 10,
        ..Default::default()
    };
    let base = experiment
        .run_instrumented(Strategy::RankInterval)
        .expect("baseline supported");
    let opass = experiment
        .run_instrumented(Strategy::Opass)
        .expect("opass supported");

    let runs = [(Strategy::RankInterval, &base), (Strategy::Opass, &opass)];
    trace_csv(
        &mut report,
        out,
        "fig9_multi_input_io_trace",
        "io_seconds",
        &runs,
    )?;
    served_csv(&mut report, out, "fig10_multi_input_served_per_node", &runs)?;

    let bs = base.result.io_summary();
    let os = opass.result.io_summary();
    report.line(format!(
        "avg I/O per input: without {} s, with {} s -> ratio {:.1}x (paper: ~2x)",
        secs(bs.mean),
        secs(os.mean),
        bs.mean / os.mean
    ));
    report.line(format!(
        "local byte fraction: without {:.0}%, with {:.0}% (partial locality is expected)",
        base.result.local_byte_fraction() * 100.0,
        opass.result.local_byte_fraction() * 100.0
    ));
    // The byte counters of the recorded run restate the same story in
    // absolute volume.
    let (bm, om) = (
        base.metrics.as_ref().expect("instrumented"),
        opass.metrics.as_ref().expect("instrumented"),
    );
    report.line(format!(
        "bytes moved: without {} MB local / {} MB remote; with {} MB local / {} MB remote",
        mb(bm.counters.local_bytes),
        mb(bm.counters.remote_bytes),
        mb(om.counters.local_bytes),
        mb(om.counters.remote_bytes)
    ));
    let sb = base.result.served_summary(64);
    let so = opass.result.served_summary(64);
    report.line(format!(
        "served/node spread: without {}..{} MB, with {}..{} MB (improved, not flat)",
        mb(sb.min as u64),
        mb(sb.max as u64),
        mb(so.min as u64),
        mb(so.max as u64)
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_runs_end_to_end_on_small_scale() {
        // Full-scale is exercised by the harness; here a smoke test of the
        // plumbing with the real entry point would take seconds, so we only
        // check the experiment type wiring compiles and defaults are sane.
        let e = MultiData::default();
        assert_eq!(e.cluster.n_nodes, 64);
        assert_eq!(e.input_sizes.len(), 3);
    }
}
