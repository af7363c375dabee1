//! # opass-runtime — simulated parallel execution over the Opass substrate
//!
//! Models the paper's MPI applications: parallel processes pinned to
//! cluster nodes issuing chunk reads against the `opass-dfs` namenode, with
//! I/O timing and contention provided by the `opass-simio` event simulator.
//!
//! * [`exec`] — the engine: SPMD (static per-process task lists) and
//!   master/worker (dynamic scheduler) execution over one event loop;
//! * [`baseline`] — the assignments Opass is compared against: ParaView's
//!   rank-interval formula and uniformly random assignment;
//! * [`placement`] — process→node mapping;
//! * [`trace`] — per-read records and the run-level reports every Section V
//!   figure is derived from.
//!
//! ```
//! use opass_dfs::{DatasetSpec, DfsConfig, Namenode, Placement};
//! use opass_runtime::{baseline, exec, ProcessPlacement};
//! use opass_workloads::{Task, Workload};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut nn = Namenode::new(4, DfsConfig::default());
//! let mut rng = StdRng::seed_from_u64(7);
//! let ds = nn.create_dataset(
//!     &DatasetSpec::uniform("demo", 8, 64 << 20),
//!     &Placement::Random,
//!     &mut rng,
//! );
//! let tasks: Vec<Task> = nn.dataset(ds).unwrap().chunks.iter()
//!     .map(|&c| Task::single(c)).collect();
//! let workload = Workload::new("demo", tasks);
//!
//! let result = exec::execute(
//!     &nn,
//!     &workload,
//!     &ProcessPlacement::one_per_node(4),
//!     exec::TaskSource::Static(baseline::rank_interval(8, 4)),
//!     &exec::ExecConfig::default(),
//! );
//! assert_eq!(result.records.len(), 8);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod exec;
pub mod metrics;
pub mod monitor;
pub mod placement;
pub mod trace;
pub mod write;

pub use exec::{execute, execute_bulk_synchronous, execute_instrumented, ExecConfig, TaskSource};
pub use metrics::{NodeMetrics, NodeSeries, RunCounters, RunMetrics, TimeSeries};
pub use monitor::BalanceReport;
pub use placement::ProcessPlacement;
pub use trace::{IoRecord, RunResult};
pub use write::{write_dataset, WriteConfig, WriteOutcome};
