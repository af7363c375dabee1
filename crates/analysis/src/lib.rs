//! # opass-analysis — probabilistic analysis of parallel data access
//!
//! Reproduces Section III of the Opass paper in closed form:
//!
//! * [`locality`] — how many chunks a parallel process can expect to read
//!   *locally* (`X ~ Bin(n, r/m)`; Figure 3 and the `P(X > 5)` headline
//!   numbers);
//! * [`imbalance`] — how many chunks a storage node must *serve*
//!   (law-of-total-probability mixture over the node's stored chunks;
//!   the "some nodes serve 8× more than others" conclusion);
//! * [`binomial`] — the shared log-space binomial machinery;
//! * [`montecarlo`] — protocol-accurate simulation cross-validating the
//!   closed forms.
//!
//! ```
//! use opass_analysis::{ClusterParams, LocalityModel};
//!
//! // 512 chunks, 3-way replication, 128 nodes (paper Section III-A):
//! let model = LocalityModel::new(ClusterParams::new(512, 3, 128));
//! let p = model.published_p_more_than(5);
//! assert!((p - 0.2143).abs() < 0.002); // paper: 21.43%
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binomial;
pub mod imbalance;
pub mod locality;
pub mod montecarlo;

pub use binomial::{ln_choose, ln_factorial, Binomial};
pub use imbalance::ImbalanceModel;
pub use locality::{ClusterParams, LocalityModel};
pub use montecarlo::{
    run as run_montecarlo, run_parallel as run_montecarlo_parallel, wilson_interval,
    MonteCarloConfig, MonteCarloResult,
};
