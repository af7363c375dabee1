//! # opass-bench — figure harness for the Opass reproduction
//!
//! * [`figures`] — one generator per paper figure/table; the `figures`
//!   binary (`cargo run -p opass-bench --release --bin figures -- all`)
//!   regenerates every evaluation artifact as CSV plus summary rows.
//! * [`report`] — CSV emission and report formatting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod report;

pub use figures::{run_figure, ALL_FIGURES};
pub use report::{CsvWriter, FigureReport};
