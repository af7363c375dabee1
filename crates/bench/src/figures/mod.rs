//! One module per paper figure/table; each regenerates its CSVs and
//! summary rows. The `figures` binary dispatches here; EXPERIMENTS.md
//! quotes the summary lines.

pub mod ablation;
pub mod dynamic;
pub mod extensions;
pub mod motivation;
pub mod multi;
pub mod overhead;
pub mod paraview;
pub mod single;
pub mod theory;

use crate::report::FigureReport;
use std::path::Path;

/// One figure generator: writes its CSVs under the directory and returns
/// the summary.
type Generator = fn(&Path, u64) -> FigureReport;

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

/// Runs the generator of figure `id` or of an alias of it.
pub fn run_figure(id: &str, out: &Path, seed: u64) -> Option<FigureReport> {
    let id = ALIASES
        .iter()
        .find(|&&(alias, _)| alias == id)
        .map_or(id, |&(_, target)| target);
    let &(_, generate) = FIGURES.iter().find(|&&(known, _)| known == id)?;
    Some(generate(out, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        let dir = std::env::temp_dir();
        assert!(run_figure("fig99", &dir, 0).is_none());
    }

    #[test]
    fn every_alias_names_a_figure() {
        for (alias, target) in ALIASES {
            assert!(ALL_FIGURES.contains(target), "{alias} -> {target}");
        }
    }
}
