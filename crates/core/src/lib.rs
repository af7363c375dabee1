//! # opass-core — Opass: Optimization of Parallel Data Access
//!
//! A from-scratch reproduction of *"Opass: Analysis and Optimization of
//! Parallel Data Access on Distributed File Systems"* (Yin, Wang, Zhou,
//! Lukasiewicz, Huang, Zhang — IEEE IPDPS 2015).
//!
//! Parallel applications reading from HDFS-like file systems suffer remote
//! and imbalanced reads: the default rank-based task assignment ignores
//! where chunk replicas live, so a few storage nodes end up serving many
//! concurrent readers while others idle. Opass fetches the block layout,
//! models process→chunk affinity as a bipartite graph, and computes
//! assignments by matching:
//!
//! * **single-data** (one input per task): max-flow over a quota network —
//!   [`PlanRequest::single`];
//! * **multi-data** (several inputs per task): quota-constrained deferred
//!   acceptance with strict trade-up (paper Algorithm 1) —
//!   [`PlanRequest::multi`];
//! * **dynamic** (master/worker, irregular compute): matching-guided
//!   per-worker lists with locality-aware stealing —
//!   [`PlanRequest::dynamic`].
//!
//! All modes share one front door — [`OpassPlanner::plan`] /
//! [`OpassPlanner::session`] over a [`PlanRequest`] — and the loop can be
//! closed in the other direction: [`PlacementSession`] migrates replicas
//! *toward* demand under a byte budget (see `DESIGN.md` §12).
//!
//! The crate re-exports the full stack: the HDFS-model substrate
//! ([`dfs`]), the discrete-event cluster I/O simulator ([`simio`]), the
//! matching algorithms ([`matching`]), the simulated parallel runtime
//! ([`runtime`]), the evaluation workloads ([`workloads`]), and the
//! Section III probabilistic analysis ([`analysis`]).
//!
//! ## Quick start
//!
//! Every evaluation scenario implements the [`Experiment`] trait over a
//! shared [`ClusterSpec`] and the unified [`Strategy`] enum:
//!
//! ```
//! use opass_core::{ClusterSpec, Experiment, SingleData, Strategy};
//!
//! let experiment = SingleData {
//!     cluster: ClusterSpec { n_nodes: 16, ..Default::default() },
//!     chunks_per_process: 4,
//! };
//! let baseline = experiment.run(Strategy::RankInterval).unwrap();
//! let opass = experiment.run(Strategy::Opass).unwrap();
//!
//! // Opass turns mostly-remote reads into mostly-local ones...
//! assert!(opass.result.local_fraction() > baseline.result.local_fraction());
//! // ...which shrinks the average I/O time and the whole run.
//! assert!(opass.result.io_summary().mean < baseline.result.io_summary().mean);
//!
//! // `run_instrumented` additionally records the structured event trace
//! // and derives per-node utilization metrics (see `RunMetrics`):
//! let observed = experiment.run_instrumented(Strategy::Opass).unwrap();
//! assert!(observed.metrics().is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod experiment;
pub mod place;
pub mod planner;
pub mod replan;
pub mod request;

pub use builder::{
    build_locality_graph_from_layout, build_matching_values, build_rack_graph,
    capture_workload_layout,
};
pub use experiment::{
    ClusterSpec, Dynamic, Experiment, ExperimentRun, Heterogeneous, MultiData, ParaView, Racked,
    SingleData, Strategy, UnsupportedStrategy,
};
pub use place::{PlacementConfig, PlacementRound, PlacementSession};
pub use planner::{MultiDataPlan, OpassPlanner, SingleDataPlan};
pub use replan::{MultiDataSession, SingleDataSession};
pub use request::{PlanOutcome, PlanRequest, Session};

pub use opass_analysis as analysis;
pub use opass_dfs as dfs;
pub use opass_matching as matching;
pub use opass_runtime as runtime;
pub use opass_simio as simio;
pub use opass_workloads as workloads;
