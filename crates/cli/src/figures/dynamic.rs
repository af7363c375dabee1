//! Figure 11 — Dynamic Parallel Data Access.
//!
//! Master/worker execution with irregular per-task compute (mpiBLAST
//! style) on a 64-node cluster with 640 chunks. The default dispatcher is a
//! FIFO queue; Opass pre-computes per-worker lists and steals by locality.
//! The paper reports a 2.7× lower average I/O operation time with Opass.

use super::trace_csv;
use crate::report::{secs, FigureReport};
use opass_core::{ClusterSpec, Dynamic, Experiment, Strategy};
use std::io;
use std::path::Path;

/// Regenerates Figure 11. Runs instrumented so the steal counter — which
/// only the event log tracks — makes it into the summary.
pub(crate) fn fig11(out: &Path, seed: u64) -> io::Result<FigureReport> {
    let mut report = FigureReport::new("fig11");
    let experiment = Dynamic {
        cluster: ClusterSpec {
            n_nodes: 64,
            seed,
            ..Dynamic::default().cluster
        },
        tasks_per_process: 10,
        ..Default::default()
    };
    let fifo = experiment
        .run_instrumented(Strategy::Fifo)
        .expect("fifo supported");
    let guided = experiment
        .run_instrumented(Strategy::OpassGuided)
        .expect("guided supported");

    trace_csv(
        &mut report,
        out,
        "fig11_dynamic_io_trace",
        "io_seconds",
        &[(Strategy::Fifo, &fifo), (Strategy::OpassGuided, &guided)],
    )?;

    let fs = fifo.result.io_summary();
    let gs = guided.result.io_summary();
    report.line(format!(
        "avg I/O: default dynamic {} s, Opass-guided {} s -> ratio {:.1}x (paper: ~2.7x)",
        secs(fs.mean),
        secs(gs.mean),
        fs.mean / gs.mean
    ));
    report.line(format!(
        "locality: default {:.0}%, guided {:.0}%",
        fifo.result.local_fraction() * 100.0,
        guided.result.local_fraction() * 100.0
    ));
    let gm = guided.metrics.as_ref().expect("instrumented");
    report.line(format!(
        "guided run: {} of {} tasks stolen cross-list (locality-aware stealing keeps workers busy)",
        gm.counters.steals, gm.counters.tasks_started
    ));
    report.line(format!(
        "makespan: default {} s, guided {} s",
        secs(fifo.result.makespan),
        secs(guided.result.makespan)
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_scale() {
        let e = Dynamic::default();
        assert_eq!(e.cluster.n_nodes * e.tasks_per_process, 640);
    }
}
