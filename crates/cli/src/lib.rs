//! # opass-cli — the library half of the `opass` command line
//!
//! The paper's evaluation as figure generators: one per paper figure or
//! table, each writing its CSVs under an output directory and returning
//! summary rows. `opass figures all` regenerates every one of them;
//! `FIGURES.txt` at the repository root is that summary for the default
//! seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod figures;
mod report;

pub use figures::{figure, ALL_FIGURES};
pub use report::FigureReport;
