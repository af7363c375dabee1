//! # opass-serve — a concurrent planning service for Opass
//!
//! The planner in `opass-core` answers one question — *which process
//! should read which chunk* — as a pure function of the DFS layout. This
//! crate turns that function into a long-lived service, the way a real
//! deployment would run it next to the namenode:
//!
//! * **Wire protocol** ([`protocol`], [`frame`]): length-prefixed JSON
//!   frames with a versioned envelope and a max-frame guard; requests for
//!   plans, layouts, stats, invalidation, and graceful shutdown.
//! * **Sharded reactor** ([`server`]): thread-per-core shards running a
//!   hand-rolled nonblocking readiness loop (no async runtime), with
//!   dataset→shard cache affinity, zero-copy writes of pre-encoded
//!   replies, and backpressure-aware accept.
//! * **Generation-stamped caches**: each shard owns the plan and layout
//!   slices for its datasets. One atomic generation bump (the
//!   `invalidate` request, standing in for a namenode mutation event)
//!   makes every cached entry stale; stale entries are evicted lazily on
//!   lookup, or repaired in place from a delta journal.
//! * **Request coalescing**: concurrent requests for the same
//!   `(dataset, strategy, seed)` share a single computation — the
//!   stampede after an invalidation runs the planner once.
//! * **Admission control** (the `pool` module): a bounded worker queue;
//!   when it is full the server replies `overloaded` immediately instead
//!   of queueing without bound. Admitted work always completes, even
//!   across graceful shutdown.
//! * **Metrics** (the `metrics` module): per-request latency histogram
//!   (power-of-two microsecond buckets, p50/p99), cache hit/miss,
//!   coalesce and shed counters — per shard, and merged as the sum of
//!   the shards — all exported by the `stats` request.
//!
//! Determinism is the contract: the served world is built from a
//! [`ServeSpec`], and for a fixed `(spec, generation, strategy, seed)` a
//! remote plan is byte-identical to running [`opass_core::OpassPlanner`]
//! in-process — the service adds caching and concurrency, never
//! different answers.
//!
//! ## Quick start
//!
//! ```
//! use opass_serve::{serve, Client, ServerConfig, Strategy};
//!
//! let handle = serve(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let plan = client.plan(0, Strategy::Opass, 42).unwrap();
//! assert!(plan.local_task_fraction > 0.5);
//! client.shutdown().unwrap();
//! handle.wait();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
mod conn;
pub mod frame;
mod metrics;
mod planning;
mod pool;
pub mod protocol;
mod reactor;
pub mod replay;
pub mod server;
pub mod spec;

pub use client::{Client, ClientError};
pub use frame::{FrameError, MAX_FRAME};
pub use protocol::{
    LatencyBin, LatencySummary, LayoutEntry, LayoutReply, PlaceReply, PlaceRoundReply, PlanReply,
    ProtoError, Request, Response, ShardStatsReply, StatsReply, PROTOCOL_VERSION,
};
pub use replay::{
    replay_local, replay_remote, BatchDigest, ReplayConfig, ReplayDriverError, ReplayReport,
};
pub use server::{default_shards, serve, ServerConfig, ServerHandle};
pub use spec::{ServeSpec, World};

pub use opass_core::Strategy;
