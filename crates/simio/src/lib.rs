//! # opass-simio — discrete-event cluster I/O simulator
//!
//! This crate is the hardware substrate of the Opass reproduction. The
//! original paper evaluated on PRObE's 128-node *Marmot* cluster; here the
//! cluster is a deterministic fluid-flow simulation:
//!
//! * every node has a **disk** (streaming bandwidth that degrades under
//!   concurrent streams, modelling seek interference) and a full-duplex
//!   **NIC** (constant bandwidth per direction);
//! * a **flow** is a chunk read traversing the source disk and, when remote,
//!   both NIC directions;
//! * concurrent flows share resources with **max-min fairness** (progressive
//!   filling), recomputed whenever a flow starts or finishes;
//! * the [`Engine`] exposes a pull-based event loop so callers can schedule
//!   reactively (submit a read when a simulated process becomes idle).
//!
//! The calibration in [`IoParams::marmot`] reproduces the absolute numbers
//! the paper reports: a lone local 64 MB read ≈ 0.9 s, contended remote
//! reads 2–12 s.
//!
//! ## Quick start
//!
//! ```
//! use opass_simio::{ClusterIo, IoParams, Event, MB_U64};
//!
//! let mut cluster = ClusterIo::new(4, IoParams::marmot());
//! // Node 1 reads a 64 MB chunk stored on node 0 (remote read).
//! cluster.start_read(1, 0, 64 * MB_U64, 42);
//! while let Some(ev) = cluster.next_event() {
//!     if let Event::FlowCompleted(c) = ev {
//!         assert_eq!(c.token, 42);
//!         assert!(c.duration() > 0.9);
//!     }
//! }
//! ```
//!
//! ## Recording events
//!
//! Recording is off by default. [`ClusterIo::record_events`] (or
//! [`Engine::record_events`]) turns on the engine's structured event log;
//! [`ClusterIo::take_events`] hands the recorded [`TraceEvent`]s back.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
mod components;
pub mod engine;
pub mod fairshare;
pub mod flow;
pub mod record;
pub mod resource;
pub mod stats;
pub mod time;
pub mod topology;

pub use cluster::{ClusterIo, IoParams, MB, MB_U64};
pub use engine::{Engine, EngineStats, Event};
pub use flow::{FlowCompletion, FlowId, FlowSpec};
pub use record::TraceEvent;
pub use resource::{Degradation, Resource, ResourceId};
pub use stats::{empirical_cdf, quantile, CdfPoint, Summary};
pub use time::SimTime;
pub use topology::Topology;
