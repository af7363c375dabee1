//! The unified planning front door: build a [`PlanRequest`], hand it to
//! [`OpassPlanner::plan`] or [`OpassPlanner::session`].
//!
//! The planner grew one entry point per paper section (single-data,
//! rack-aware, weighted, multi-data, dynamic) plus one per session kind;
//! a request object collapses them behind a single pair of methods so a
//! new planning mode (such as closed-loop placement,
//! [`crate::PlacementSession`]) does not add yet another method family:
//!
//! ```
//! use opass_core::{OpassPlanner, PlanRequest};
//! use opass_core::dfs::{DfsConfig, DatasetSpec, Namenode, Placement};
//! use opass_core::runtime::ProcessPlacement;
//! use opass_core::workloads::{Task, Workload};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut nn = Namenode::new(8, DfsConfig::default());
//! let mut rng = StdRng::seed_from_u64(7);
//! let ds = nn.create_dataset(
//!     &DatasetSpec::uniform("d", 32, 64 << 20),
//!     &Placement::Random,
//!     &mut rng,
//! );
//! let tasks = nn.dataset(ds).unwrap().chunks.iter().map(|&c| Task::single(c)).collect();
//! let workload = Workload::new("w", tasks);
//! let placement = ProcessPlacement::one_per_node(8);
//!
//! let request = PlanRequest::single(&nn, &workload, &placement).seed(3);
//! let plan = OpassPlanner::default()
//!     .plan(&request)
//!     .into_single()
//!     .expect("single request yields a single plan");
//! assert!(plan.assignment.is_balanced());
//! ```

use crate::builder::{
    build_locality_graph_from_layout, build_rack_graph, NodeLists, ProcsOn, TaskLayout,
};
use crate::planner::{MultiDataPlan, OpassPlanner, SingleDataPlan};
use crate::replan::{MultiDataSession, SingleDataSession};
use opass_dfs::{LayoutDelta, LayoutSnapshot, RackMap};
use opass_matching::maxflow::dinic::bipartite_max_flow;
use opass_matching::{
    assign_multi_data, quotas, weighted_quotas, GuidedScheduler, Objective, SingleDataMatcher,
    TwoTierOutcome, NONE,
};
use opass_runtime::ProcessPlacement;
use opass_workloads::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which planning mode the request selects.
#[derive(Debug, Clone, Copy)]
enum Mode<'a> {
    /// Max-flow single-data matching (paper Section IV-B).
    Single,
    /// Two-tier node-then-rack matching (this repo's rack extension).
    SingleRackAware(&'a RackMap),
    /// Speed-proportional quotas on a heterogeneous cluster.
    SingleWeighted(&'a [f64]),
    /// Algorithm 1 deferred acceptance (paper Section IV-C).
    Multi,
    /// Matching-guided dynamic scheduling (paper Section IV-D).
    Dynamic,
}

/// A complete planning request: the layout of every task input, mode,
/// process placement and fill seed, assembled with a small builder.
///
/// Constructed by [`PlanRequest::single`], [`PlanRequest::single_from_layout`],
/// [`PlanRequest::multi`] or [`PlanRequest::dynamic`]; refined by
/// [`PlanRequest::seed`], [`PlanRequest::rack_aware`] and
/// [`PlanRequest::weighted`]. The layout is the only thing a mode plans
/// from: [`PlanRequest::single_from_layout`] borrows the caller's
/// snapshot, and the namenode constructors capture the workload's inputs
/// once, when the request is built.
#[derive(Debug, Clone)]
pub struct PlanRequest<'a> {
    layout: TaskLayout<'a>,
    mode: Mode<'a>,
    placement: &'a ProcessPlacement,
    seed: u64,
}

impl<'a> PlanRequest<'a> {
    /// A single-data request (one input chunk per task): max-flow matching
    /// over the process→chunk locality graph.
    pub fn single(
        namenode: &opass_dfs::Namenode,
        workload: &Workload,
        placement: &'a ProcessPlacement,
    ) -> Self {
        Self::new(TaskLayout::of(namenode, workload), Mode::Single, placement)
    }

    /// A single-data request against an already-captured layout snapshot
    /// (entry `i` = task `i`), bit-identical to [`PlanRequest::single`]
    /// for a snapshot captured from the same workload.
    pub fn single_from_layout(
        snapshot: &'a LayoutSnapshot,
        placement: &'a ProcessPlacement,
    ) -> Self {
        Self::new(TaskLayout::single_input(snapshot), Mode::Single, placement)
    }

    /// A multi-data request (several inputs per task): Algorithm 1
    /// deferred acceptance with strict trade-up.
    pub fn multi(
        namenode: &opass_dfs::Namenode,
        workload: &Workload,
        placement: &'a ProcessPlacement,
    ) -> Self {
        Self::new(TaskLayout::of(namenode, workload), Mode::Multi, placement)
    }

    /// A dynamic-scheduling request: a matching computed up front wrapped
    /// in the guided per-worker scheduler.
    pub fn dynamic(
        namenode: &opass_dfs::Namenode,
        workload: &Workload,
        placement: &'a ProcessPlacement,
    ) -> Self {
        Self::new(TaskLayout::of(namenode, workload), Mode::Dynamic, placement)
    }

    fn new(layout: TaskLayout<'a>, mode: Mode<'a>, placement: &'a ProcessPlacement) -> Self {
        PlanRequest {
            layout,
            mode,
            placement,
            seed: 0,
        }
    }

    /// Sets the seed driving the random fill of unmatched files
    /// (and the guided scheduler's tie-breaking). Defaults to 0.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Upgrades a single-data request to two-tier rack-aware matching:
    /// node-local first, rack-local for the remainder, random fill last.
    ///
    /// # Panics
    ///
    /// Panics unless the request is a plain single-data request (not
    /// already rack-aware or weighted).
    pub fn rack_aware(mut self, racks: &'a RackMap) -> Self {
        assert!(
            matches!(self.mode, Mode::Single),
            "rack_aware applies to a plain single-data request"
        );
        self.mode = Mode::SingleRackAware(racks);
        self
    }

    /// Upgrades a single-data request to heterogeneous planning: task
    /// quotas proportional to each process's `speed` (e.g. relative disk
    /// bandwidth), with locality still maximized by max-flow.
    ///
    /// # Panics
    ///
    /// Panics unless the request is a plain single-data request (not
    /// already rack-aware or weighted) and `speeds` has one entry per
    /// process.
    pub fn weighted(mut self, speeds: &'a [f64]) -> Self {
        assert!(
            matches!(self.mode, Mode::Single),
            "weighted applies to a plain single-data request"
        );
        assert_eq!(
            speeds.len(),
            self.placement.n_procs(),
            "one speed per process"
        );
        self.mode = Mode::SingleWeighted(speeds);
        self
    }

    pub(crate) fn placement(&self) -> &'a ProcessPlacement {
        self.placement
    }
}

/// The result of [`OpassPlanner::plan`] — one variant per planning mode.
#[derive(Debug, Clone)]
pub enum PlanOutcome {
    /// From a plain single-data request.
    Single(SingleDataPlan),
    /// From a rack-aware single-data request.
    TwoTier(TwoTierOutcome),
    /// From a multi-data request.
    Multi(MultiDataPlan),
    /// From a dynamic request.
    Dynamic(GuidedScheduler),
}

impl PlanOutcome {
    /// The single-data plan, if this outcome is one (plain or weighted
    /// single-data requests).
    pub fn into_single(self) -> Option<SingleDataPlan> {
        match self {
            PlanOutcome::Single(p) => Some(p),
            _ => None,
        }
    }

    /// Borrows the single-data plan, if this outcome is one.
    pub fn as_single(&self) -> Option<&SingleDataPlan> {
        match self {
            PlanOutcome::Single(p) => Some(p),
            _ => None,
        }
    }

    /// The two-tier outcome, if this came from a rack-aware request.
    pub fn into_two_tier(self) -> Option<TwoTierOutcome> {
        match self {
            PlanOutcome::TwoTier(o) => Some(o),
            _ => None,
        }
    }

    /// The multi-data plan, if this came from a multi-data request.
    pub fn into_multi(self) -> Option<MultiDataPlan> {
        match self {
            PlanOutcome::Multi(p) => Some(p),
            _ => None,
        }
    }

    /// The guided scheduler, if this came from a dynamic request.
    pub fn into_dynamic(self) -> Option<GuidedScheduler> {
        match self {
            PlanOutcome::Dynamic(s) => Some(s),
            _ => None,
        }
    }
}

/// A long-lived planning session from [`OpassPlanner::session`] — one
/// variant per session-capable mode. Advance it with [`Session::replan`],
/// or unwrap the concrete session for mode-specific accessors.
#[derive(Debug, Clone)]
pub enum Session {
    /// Incremental single-data session (residual max-flow state). Both
    /// variants are boxed: the sessions carry arena slabs and value
    /// tables, so inline they would bloat every `Session` move.
    Single(Box<SingleDataSession>),
    /// Incremental multi-data session (patched value table).
    Multi(Box<MultiDataSession>),
}

impl Session {
    /// Advances the session by a layout delta and returns the repaired
    /// plan. Deterministic: the same session history and delta sequence
    /// produce bit-identical plans.
    pub fn replan(&mut self, delta: &LayoutDelta) -> PlanOutcome {
        match self {
            Session::Single(s) => PlanOutcome::Single(s.replan(delta).clone()),
            Session::Multi(s) => PlanOutcome::Multi(s.replan(delta).clone()),
        }
    }

    /// How many deltas the session has absorbed.
    pub fn replans(&self) -> u64 {
        match self {
            Session::Single(s) => s.replans(),
            Session::Multi(s) => s.replans(),
        }
    }

    /// The underlying single-data session, if this is one.
    pub fn into_single(self) -> Option<SingleDataSession> {
        match self {
            Session::Single(s) => Some(*s),
            _ => None,
        }
    }

    /// Borrows the underlying single-data session, if this is one.
    pub fn as_single(&self) -> Option<&SingleDataSession> {
        match self {
            Session::Single(s) => Some(s),
            _ => None,
        }
    }

    /// The underlying multi-data session, if this is one.
    pub fn into_multi(self) -> Option<MultiDataSession> {
        match self {
            Session::Multi(s) => Some(*s),
            _ => None,
        }
    }
}

impl OpassPlanner {
    /// Plans a request — the single planning entry point.
    ///
    /// The outcome variant is determined by the request mode.
    pub fn plan(&self, request: &PlanRequest<'_>) -> PlanOutcome {
        let (layout, placement, seed) = (&request.layout, request.placement, request.seed);
        match request.mode {
            Mode::Single => PlanOutcome::Single(self.solve_single_layout(
                layout.single(),
                placement,
                seed,
                None,
            )),
            Mode::SingleWeighted(speeds) => PlanOutcome::Single(self.solve_single_layout(
                layout.single(),
                placement,
                seed,
                Some(speeds),
            )),
            Mode::SingleRackAware(racks) => {
                let snapshot = layout.single();
                let node_graph = build_locality_graph_from_layout(snapshot, placement);
                let rack_graph = build_rack_graph(snapshot, placement, racks);
                let mut rng = StdRng::seed_from_u64(seed);
                PlanOutcome::TwoTier(self.matcher().assign_two_tier(
                    &node_graph,
                    &rack_graph,
                    &mut rng,
                ))
            }
            Mode::Multi => {
                let outcome = assign_multi_data(&layout.values(placement));
                PlanOutcome::Multi(MultiDataPlan {
                    assignment: outcome.assignment,
                    matched_bytes: outcome.matched_bytes,
                    total_bytes: layout.snapshot().total_bytes(),
                    reassignments: outcome.reassignments,
                })
            }
            Mode::Dynamic => {
                let values = layout.values(placement);
                let assignment = if layout.is_single_input() {
                    self.solve_single_layout(layout.single(), placement, seed, None)
                        .assignment
                } else {
                    assign_multi_data(&values).assignment
                };
                PlanOutcome::Dynamic(GuidedScheduler::new(&assignment, values))
            }
        }
    }

    /// Starts a long-lived planning session for a request.
    ///
    /// Supported for plain single-data and multi-data requests; the
    /// initial plan is bit-identical to [`OpassPlanner::plan`] on the same
    /// request.
    ///
    /// # Panics
    ///
    /// Panics for rack-aware, weighted, or dynamic requests — those modes
    /// have no incremental session.
    pub fn session(&self, request: &PlanRequest<'_>) -> Session {
        let (layout, placement, seed) = (&request.layout, request.placement, request.seed);
        let session = match request.mode {
            Mode::Single => Some(Session::Single(Box::new(SingleDataSession::start(
                self,
                layout.single().clone(),
                placement,
                seed,
            )))),
            Mode::Multi => Some(Session::Multi(Box::new(MultiDataSession::start(
                layout, placement,
            )))),
            _ => None,
        };
        session.expect("sessions exist for plain single- and multi-data requests only")
    }

    /// Resumes the single-data session behind a plan from the plan's
    /// owners, without a solve: equal to [`OpassPlanner::session`] on
    /// the same request when `owners` are those of
    /// [`OpassPlanner::plan`] on it. A plan's owners fix its maximum
    /// matching, because a fill target is never co-located with its
    /// file, so resuming costs one graph build.
    ///
    /// # Panics
    ///
    /// Panics unless the request is a plain single-data request and
    /// `owners` names one in-range process per task.
    pub fn resume_session(&self, request: &PlanRequest<'_>, owners: &[u32]) -> SingleDataSession {
        assert!(
            matches!(request.mode, Mode::Single),
            "sessions resume for plain single-data requests only"
        );
        SingleDataSession::resume(
            self,
            request.layout.single().clone(),
            request.placement,
            request.seed,
            owners,
        )
    }

    /// The shared single-data flow solve: matching under even quotas or
    /// quotas proportional to `speeds`, then [`SingleDataPlan::assemble`].
    /// Under [`Objective::MatchCount`] the in-place Dinic reads each
    /// process's node list ([`NodeLists`]) and no graph is built; the
    /// min-cost flow of [`Objective::MatchedBytes`] needs the graph's
    /// weights.
    fn solve_single_layout(
        &self,
        snapshot: &LayoutSnapshot,
        placement: &ProcessPlacement,
        seed: u64,
        speeds: Option<&[f64]>,
    ) -> SingleDataPlan {
        let quota = match speeds {
            Some(speeds) => weighted_quotas(snapshot.len(), speeds),
            None => quotas(snapshot.len(), placement.n_procs().max(1)),
        };
        let procs_on = ProcsOn::nodes(placement);
        let (owner, load) = match self.objective {
            Objective::MatchCount => {
                let flow =
                    bipartite_max_flow(NodeLists::build(snapshot, &procs_on).lists(), &quota);
                (flow.owner, flow.load)
            }
            Objective::MatchedBytes => {
                let graph = build_locality_graph_from_layout(snapshot, placement);
                let (owner, load) = self.matcher().flow_owners_with_quotas(&graph, &quota);
                let owner = owner.iter().map(|o| o.map_or(NONE, |p| p as u32)).collect();
                (owner, load)
            }
        };
        let mut rng = StdRng::seed_from_u64(seed);
        SingleDataPlan::assemble(
            snapshot, &procs_on, &quota, owner, load, self.fill, &mut rng,
        )
    }

    fn matcher(&self) -> SingleDataMatcher {
        SingleDataMatcher {
            fill: self.fill,
            objective: self.objective,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_dfs::{ChunkId, DatasetSpec, DfsConfig, Namenode, NodeId, Placement};
    use opass_matching::{locality_report, Assignment, FillPolicy};
    use rand::Rng;

    /// `n_chunks` chunks of two sizes on `n_nodes` nodes, `r` replicas
    /// each, in dataset order.
    fn layout(n_nodes: usize, n_chunks: usize, r: u32, seed: u64) -> LayoutSnapshot {
        let mut nn = Namenode::new(n_nodes, DfsConfig { replication: r });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chunks: Vec<ChunkId> = Vec::new();
        for (name, n, size) in [
            ("a", n_chunks.div_ceil(2), 64 << 20),
            ("b", n_chunks / 2, 40 << 20),
        ] {
            let ds = nn.create_dataset(
                &DatasetSpec::uniform(name, n, size),
                &Placement::Random,
                &mut rng,
            );
            chunks.extend(&nn.dataset(ds).expect("dataset").chunks);
        }
        LayoutSnapshot::capture(&nn, &chunks)
    }

    /// The cold plan as it was assembled from the locality graph: the
    /// flow, the fill and the assignment, and the report measured on the
    /// graph's edges.
    fn graph_plan(
        snapshot: &LayoutSnapshot,
        placement: &ProcessPlacement,
        quota: &[usize],
        fill: FillPolicy,
        seed: u64,
    ) -> SingleDataPlan {
        let graph = build_locality_graph_from_layout(snapshot, placement);
        let matcher = SingleDataMatcher {
            fill,
            ..Default::default()
        };
        let (mut owner, mut load) = matcher.flow_owners_with_quotas(&graph, quota);
        let matched_files = owner.iter().flatten().count();
        let mut rng = StdRng::seed_from_u64(seed);
        let filled_files = matcher.fill(quota, &mut owner, &mut load, &mut rng);
        let owner = owner.into_iter().map(|o| o.expect("filled")).collect();
        let assignment = Assignment::from_owners(owner, placement.n_procs());
        let locality = locality_report(&assignment, &graph, &snapshot.sizes());
        SingleDataPlan {
            assignment,
            matched_files,
            filled_files,
            locality,
        }
    }

    #[test]
    fn a_cold_plan_over_node_lists_is_the_graph_plan_owner_for_owner() {
        // Placements with one process per node, several per node, and
        // fewer processes than nodes (holders with no process); one
        // replica, three, and five (a spilled replica set); even and
        // weighted quotas; a one-chunk layout. The flow, its load and
        // its work must be the graph's, and the plan must be the one
        // the graph path assembled.
        let mut rng = StdRng::seed_from_u64(0x40DE);
        let mut weighted = 0;
        for case in 0..240 {
            let n_nodes = rng.gen_range(5usize..40);
            let r = [1, 3, 5][case % 3];
            let n_chunks = if case % 16 == 0 {
                1
            } else {
                rng.gen_range(2..400)
            };
            let snapshot = layout(n_nodes, n_chunks, r, case as u64);
            let placement = match case / 3 % 4 {
                0 => ProcessPlacement::one_per_node(n_nodes),
                1 => ProcessPlacement::round_robin(2 * n_nodes + 1, n_nodes),
                2 => ProcessPlacement::round_robin(n_nodes / 2 + 1, n_nodes),
                _ => ProcessPlacement::explicit(
                    (0..rng.gen_range(1..2 * n_nodes))
                        .map(|_| NodeId(rng.gen_range(0..n_nodes as u32)))
                        .collect(),
                ),
            };
            let m = placement.n_procs();
            let speeds: Vec<f64> = (0..m).map(|_| f64::from(rng.gen_range(1u8..4))).collect();
            let weigh = case % 5 == 4;
            let quota = if weigh {
                weighted += 1;
                weighted_quotas(n_chunks, &speeds)
            } else {
                quotas(n_chunks, m)
            };
            let fill = [FillPolicy::Random, FillPolicy::LeastLoaded][case % 2];
            let label =
                format!("case {case}: {n_nodes} nodes, {m} processes, {n_chunks} chunks, r {r}");

            let graph = build_locality_graph_from_layout(&snapshot, &placement);
            let procs_on = ProcsOn::nodes(&placement);
            let lists = NodeLists::build(&snapshot, &procs_on);
            assert_eq!(
                bipartite_max_flow(lists.lists(), &quota),
                bipartite_max_flow(&graph, &quota),
                "{label}: flow"
            );

            let planner = OpassPlanner {
                fill,
                ..Default::default()
            };
            let request = PlanRequest::single_from_layout(&snapshot, &placement).seed(case as u64);
            let request = if weigh {
                request.weighted(&speeds)
            } else {
                request
            };
            let got = planner.plan(&request).into_single().expect("single plan");
            let want = graph_plan(&snapshot, &placement, &quota, fill, case as u64);
            assert_eq!(got.assignment, want.assignment, "{label}: owners");
            assert_eq!(
                (got.matched_files, got.filled_files, got.locality),
                (want.matched_files, want.filled_files, want.locality),
                "{label}: counts and locality"
            );
        }
        assert!(weighted > 0);
    }
}
