//! # opass-matching — matching-based parallel data-access optimizers
//!
//! The algorithmic heart of the Opass reproduction (paper Section IV):
//!
//! * [`arena`] — the flat solver arenas: pooled struct-of-arrays
//!   adjacency spans and the intrusive owned-file lists the hot paths
//!   run on (`u32` handles, zero per-visit allocation);
//! * [`graph`] — the process↔chunk bipartite locality graph built from the
//!   file-system layout (Figure 4), stored on the arena pools;
//! * [`maxflow`] — Dinic run in place on the locality graph, the one
//!   max-flow the single-data matcher runs (the paper's Ford–Fulkerson
//!   survives as a test oracle), and the min-cost flow of the
//!   matched-bytes objective;
//! * [`single_data`] — the flow-network matcher for equal-quota tasks with
//!   one input each (Section IV-B, Figure 5), with the paper's random fill
//!   for unmatched files plus a least-loaded ablation variant;
//! * [`incremental`] — the delta-repair matcher: keeps the residual state
//!   of the last solve and repairs it after layout churn with searches
//!   seeded only from the touched vertices, instead of re-solving — one
//!   sequential kernel;
//! * [`multi_data`] — Algorithm 1 for tasks with several inputs
//!   (Section IV-C, Figure 6): quota-constrained deferred acceptance with
//!   strict trade-up;
//! * [`placement`] — the inverse problem: bounded replica-move proposals
//!   that migrate data toward demand, scored by exact marginal
//!   matched-byte gain on the incremental matcher's residual state;
//! * [`dynamic`] — the guided master/worker scheduler (Section IV-D):
//!   per-worker lists from a matching, locality-aware stealing from the
//!   longest list, plus the FIFO baseline;
//! * [`assignment`] — the shared assignment type and locality/balance
//!   metrics.
//!
//! ```
//! use opass_matching::{BipartiteGraph, SingleDataMatcher};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Two processes, four chunks; each process co-located with two chunks.
//! let mut graph = BipartiteGraph::new(2, 4);
//! graph.add_edge(0, 0, 64); graph.add_edge(0, 1, 64);
//! graph.add_edge(1, 2, 64); graph.add_edge(1, 3, 64);
//!
//! let out = SingleDataMatcher::default().assign(&graph, &mut StdRng::seed_from_u64(1));
//! assert_eq!(out.matched_files, 4);       // full matching: all reads local
//! assert!(out.assignment.is_balanced());  // two tasks each
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod assignment;
pub mod dynamic;
pub mod graph;
pub mod incremental;
pub mod maxflow;
pub mod multi_data;
pub mod placement;
pub mod single_data;

pub use arena::{AdjPool, OwnedList, NONE};
pub use assignment::{locality_report, Assignment, LocalityReport};
pub use dynamic::{
    DelayScheduler, DynamicScheduler, FifoScheduler, GuidedScheduler, StealPolicy, StealRecord,
};
pub use graph::BipartiteGraph;
pub use incremental::IncrementalMatcher;
pub use maxflow::{FlowAlgo, FlowWork};
pub use multi_data::{assign_multi_data, repair_multi_data, MatchingValues, MultiDataOutcome};
pub use placement::{propose_moves, PlacementPolicy, ReplicaMove};
pub use single_data::{
    quotas, weighted_quotas, FillPolicy, Objective, SingleDataMatcher, SingleDataOutcome,
    TwoTierOutcome,
};
