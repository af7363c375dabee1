//! One module per paper figure/table; each regenerates its CSVs and
//! summary rows. `opass figures` dispatches here; EXPERIMENTS.md quotes
//! the summary lines.

mod ablation;
mod dynamic;
mod extensions;
mod motivation;
mod multi;
mod overhead;
mod paraview;
mod single;
mod theory;

use crate::report::{mb, secs, FigureReport};
use opass_core::{ExperimentRun, Strategy};
use std::io;
use std::path::Path;

/// One figure generator: writes its CSVs under the directory and returns
/// the summary.
type Generator = fn(&Path, u64) -> io::Result<FigureReport>;

/// Every figure the harness knows, in presentation order.
const FIGURES: &[(&str, Generator)] = &[
    ("fig1", motivation::fig1),
    ("fig3", theory::fig3),
    ("sec3b", theory::sec3b),
    ("fig7ab", single::fig7ab_fig8ab),
    ("fig7c", single::fig7c_fig8c),
    ("fig9", multi::fig9_fig10),
    ("fig11", dynamic::fig11),
    ("fig12", paraview::fig12),
    ("overhead", overhead::overhead),
    ("ablate-replication", ablation::ablate_replication),
    ("ablate-seek", ablation::ablate_seek),
    ("ablate-fill", ablation::ablate_fill),
    ("ablate-steal", ablation::ablate_steal),
    ("ablate-barrier", ablation::ablate_barrier),
    ("ext-rack", extensions::ext_rack),
    ("ext-hetero", extensions::ext_hetero),
    ("ext-write", extensions::ext_write),
    ("ext-dynamic-baselines", extensions::ext_dynamic_baselines),
    ("ext-matching-prob", extensions::ext_matching_probability),
];

/// Figures the paper derives from another figure's runs: `fig7ab` also
/// produces `fig8ab`, `fig7c` also produces `fig8c`, and `fig9` also
/// produces `fig10`.
const ALIASES: &[(&str, &str)] = &[("fig8ab", "fig7ab"), ("fig8c", "fig7c"), ("fig10", "fig9")];

/// All figure ids the harness knows, in presentation order.
pub const ALL_FIGURES: &[&str] = &{
    let mut ids = [""; FIGURES.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = FIGURES[i].0;
        i += 1;
    }
    ids
};

/// The generator of figure `id` or of an alias of it.
pub fn figure(id: &str) -> Option<Generator> {
    let id = ALIASES
        .iter()
        .find(|&&(alias, _)| alias == id)
        .map_or(id, |&(_, target)| target);
    FIGURES
        .iter()
        .find(|&&(known, _)| known == id)
        .map(|&(_, generate)| generate)
}

/// Writes `<out>/<name>.csv`: every operation's I/O time in order, one
/// block of rows per strategy, the time under the header `column`.
fn trace_csv(
    report: &mut FigureReport,
    out: &Path,
    name: &str,
    column: &str,
    runs: &[(Strategy, &ExperimentRun)],
) -> io::Result<()> {
    let mut csv = report.csv(out, name, &["op_index", "strategy", column])?;
    for (strategy, run) in runs {
        for (i, d) in run.result.durations().iter().enumerate() {
            csv.row(&[i.to_string(), strategy.label(), secs(*d)])?;
        }
    }
    Ok(())
}

/// Writes `<out>/<name>.csv`: the MB each node served, one block of rows
/// per strategy.
fn served_csv(
    report: &mut FigureReport,
    out: &Path,
    name: &str,
    runs: &[(Strategy, &ExperimentRun)],
) -> io::Result<()> {
    let mut csv = report.csv(out, name, &["node", "strategy", "served_mb"])?;
    for (strategy, run) in runs {
        for (node, &bytes) in run.result.served_bytes.iter().enumerate() {
            csv.row(&[node.to_string(), strategy.label(), mb(bytes)])?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        assert!(figure("fig99").is_none());
    }

    #[test]
    fn every_alias_names_a_figure() {
        for (alias, target) in ALIASES {
            assert!(ALL_FIGURES.contains(target), "{alias} -> {target}");
        }
    }
}
