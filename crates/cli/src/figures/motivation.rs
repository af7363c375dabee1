//! Figure 1 — the motivating experiment.
//!
//! "We launch an MPI-based application running with parallel processes on a
//! 64-node cluster to read a data set, which contains 128 chunks, each
//! around 64 MB. Ideally, each node should serve 2 chunks. However … some
//! nodes, for instance node-43, serve more than 6 chunks while some node
//! serve none." Figure 1(a) plots chunks served per node; Figure 1(b) the
//! CDF of I/O operation times.

use crate::report::{secs, FigureReport};
use opass_core::{ClusterSpec, Experiment, SingleData, Strategy};
use std::io;
use std::path::Path;

/// Regenerates Figure 1(a) and 1(b).
pub(crate) fn fig1(out: &Path, seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("fig1");
    let experiment = SingleData {
        cluster: ClusterSpec {
            n_nodes: 64,
            seed,
            ..Default::default()
        },
        chunks_per_process: 2, // 128 chunks on 64 nodes, as in the paper
    };
    let run = experiment
        .run(Strategy::RankInterval)
        .expect("baseline supported");

    // Figure 1(a): chunks served per node.
    let chunks = run.result.chunks_served_per_node(64 << 20);
    let mut csv = report.csv(
        out,
        "fig1a_chunks_served_per_node",
        &["node", "chunks_served"],
    )?;
    for (node, served) in chunks.iter().enumerate() {
        csv.row(&[node.to_string(), format!("{served:.0}")])?;
    }

    // Figure 1(b): CDF of I/O execution times.
    let mut csv = report.csv(out, "fig1b_io_time_cdf", &["io_seconds", "cdf"])?;
    for p in run.result.io_cdf() {
        csv.row(&[secs(p.value), format!("{:.4}", p.fraction)])?;
    }

    let max_served = chunks.iter().cloned().fold(0.0, f64::max);
    let idle = chunks.iter().filter(|&&c| c == 0.0).count();
    let s = run.result.io_summary();
    report.line(format!(
        "64 nodes, 128 chunks: max served {max_served:.0} chunks (ideal 2), {idle} nodes serve none"
    ));
    report.line(format!(
        "I/O times: avg {} max {} min {} (paper: times vary greatly)",
        secs(s.mean),
        secs(s.max),
        secs(s.min)
    ));
    report.line(format!(
        "local read fraction without Opass: {:.1}%",
        run.result.local_fraction() * 100.0
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_imbalance() {
        let dir = std::env::temp_dir().join("opass-fig1-test");
        let report = fig1(&dir, 7).unwrap();
        assert_eq!(report.files.len(), 2);
        // The qualitative claims from the summary must hold.
        assert!(report.summary[0].contains("max served"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
