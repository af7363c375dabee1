//! Incremental re-planning: advance a plan by a layout delta instead of
//! re-capturing the layout and re-solving from scratch.
//!
//! A from-scratch single-data plan costs a layout capture plus an
//! O(edges) graph build plus a max-flow solve; after a small burst of
//! churn almost all of that work recomputes what was already known. The
//! sessions here keep the planner's working state alive — the layout
//! snapshot, the locality graph, and the residual matching — and advance
//! it by a [`LayoutDelta`] in time proportional to the delta:
//!
//! * [`SingleDataSession`] wraps [`IncrementalMatcher`]: each delta is
//!   canonicalized into graph mutations (edge drops from node failures
//!   and replica moves, then edge adds, then file removals in descending
//!   index order, then file additions in delta order). Replica-level
//!   churn is staged and repaired in one batch of phase-shared
//!   alternating searches, on the matcher's one sequential kernel;
//!   file-level mutations repair elementarily with searches seeded at
//!   the touched vertices. The repaired plan has the
//!   same matched-file count
//!   — and, under [`opass_matching::Objective::MatchedBytes`], the same
//!   matched-byte total — as a from-scratch solve on the advanced layout.
//! * [`MultiDataSession`] keeps the matching-value table `m_i^j` patched
//!   in place and re-runs Algorithm 1's trade-up auction over the
//!   affected tasks only, falling back to a full solve when the file set
//!   itself changes.
//!
//! Determinism: a session is a pure fold over `(seed, deltas…)` — the
//! same starting state and delta sequence yield bit-identical plans. The
//! random-fill RNG is re-derived for every replan from the session seed
//! and a replan counter, never from ambient state.

use crate::builder::{build_locality_graph_from_layout, build_values, ProcsOn, TaskLayout};
use crate::planner::{MultiDataPlan, OpassPlanner, SingleDataPlan};
use opass_dfs::{ChunkId, ChunkIndex, ChunkLayout, LayoutDelta, LayoutSnapshot, NodeId};
use opass_matching::{
    assign_multi_data, quotas, repair_multi_data, BipartiteGraph, FillPolicy, IncrementalMatcher,
    MatchingValues, SingleDataMatcher,
};
use opass_runtime::ProcessPlacement;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// Mixes the session seed with the replan counter so every replan draws
/// from a fresh, reproducible fill stream (same derivation every run).
fn fill_rng(seed: u64, replans: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ replans.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Long-lived single-data planning state that can be advanced by layout
/// deltas. Created by [`OpassPlanner::session`] on a single-data request
/// ([`crate::PlanRequest::single`] or
/// [`crate::PlanRequest::single_from_layout`]).
#[derive(Debug, Clone)]
pub struct SingleDataSession {
    snapshot: LayoutSnapshot,
    /// Chunk-id → snapshot-index map, advanced alongside `snapshot` so
    /// replans pay O(|delta| log n) instead of an O(n log n) rebuild.
    index: ChunkIndex,
    matcher: IncrementalMatcher,
    /// Processes per node, fixed for the session's lifetime.
    procs_on: ProcsOn,
    fill: FillPolicy,
    seed: u64,
    replans: u64,
    plan: SingleDataPlan,
}

impl SingleDataSession {
    pub(crate) fn start(
        planner: &OpassPlanner,
        snapshot: LayoutSnapshot,
        placement: &ProcessPlacement,
        seed: u64,
    ) -> Self {
        let graph = build_locality_graph_from_layout(&snapshot, placement);
        // Solve the initial matching with the same flow matcher the
        // scratch planner uses and adopt it, so the session's first plan
        // is bit-identical to the scratch single-data plan — not merely
        // an equally-good maximum matching.
        let scratch = SingleDataMatcher {
            fill: planner.fill,
            objective: planner.objective,
            ..Default::default()
        };
        let (owners, _) = scratch.flow_owners(&graph);
        Self::adopt(planner, snapshot, graph, owners, placement, seed)
    }

    /// Rebuilds the session a plan came from out of the plan's owners,
    /// with no solve. A fill target is never co-located with its file
    /// (see [`SingleDataPlan::assemble`]), so the owners that are
    /// edges of the locality graph are exactly the plan's maximum
    /// matching.
    pub(crate) fn resume(
        planner: &OpassPlanner,
        snapshot: LayoutSnapshot,
        placement: &ProcessPlacement,
        seed: u64,
        owners: &[u32],
    ) -> Self {
        let graph = build_locality_graph_from_layout(&snapshot, placement);
        assert_eq!(owners.len(), graph.n_files(), "one owner per file");
        let matched = owners
            .iter()
            .enumerate()
            .map(|(f, &p)| {
                let p = p as usize;
                assert!(p < graph.n_procs(), "owner {p} of file {f} out of range");
                graph.weight(p, f).is_some().then_some(p)
            })
            .collect();
        Self::adopt(planner, snapshot, graph, matched, placement, seed)
    }

    /// The one adopt path behind [`SingleDataSession::start`] and
    /// [`SingleDataSession::resume`]: the matcher takes `owners` as its
    /// matching, and the session's first plan renders around it.
    fn adopt(
        planner: &OpassPlanner,
        snapshot: LayoutSnapshot,
        graph: BipartiteGraph,
        owners: Vec<Option<usize>>,
        placement: &ProcessPlacement,
        seed: u64,
    ) -> Self {
        let matcher = IncrementalMatcher::from_matching(graph, planner.objective, owners);
        let procs_on = ProcsOn::nodes(placement);
        let plan = render_single_data_plan(&matcher, &snapshot, &procs_on, planner.fill, seed, 0);
        let index = ChunkIndex::build(&snapshot);
        SingleDataSession {
            snapshot,
            index,
            matcher,
            procs_on,
            fill: planner.fill,
            seed,
            replans: 0,
            plan,
        }
    }

    /// The plan for the current layout.
    pub fn plan(&self) -> &SingleDataPlan {
        &self.plan
    }

    /// The layout snapshot the current plan was computed against.
    pub fn snapshot(&self) -> &LayoutSnapshot {
        &self.snapshot
    }

    /// How many deltas this session has absorbed.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// The residual matching state (read-only) — the placement engine
    /// simulates candidate replica moves against it.
    pub(crate) fn matcher(&self) -> &IncrementalMatcher {
        &self.matcher
    }

    /// Advances the session by `delta`, repairing the matching in place,
    /// and returns the new plan. Cost is proportional to the delta, not
    /// to the world size.
    pub fn replan(&mut self, delta: &LayoutDelta) -> &SingleDataPlan {
        let mut delta = delta.clone();
        delta.normalize();
        self.apply_graph_ops(&delta);
        self.snapshot.apply_delta_indexed(&delta, &mut self.index);
        debug_assert_eq!(self.snapshot.len(), self.matcher.graph().n_files());
        self.replans += 1;
        self.plan = render_single_data_plan(
            &self.matcher,
            &self.snapshot,
            &self.procs_on,
            self.fill,
            self.seed,
            self.replans,
        );
        &self.plan
    }

    /// Canonical delta → graph-mutation ordering. Every replica-level
    /// change maps to edge mutations on the processes of the touched
    /// node; file-level changes add or remove whole vertices. The fixed
    /// order (drops, adds, removals by descending index, additions in
    /// delta order) makes the fold deterministic.
    fn apply_graph_ops(&mut self, delta: &LayoutDelta) {
        // `self.index` still describes the pre-delta snapshot here — the
        // snapshot (and index) advance after the graph ops, in `replan`.

        // 1. Edge drops: replicas lost to node failures (computed against
        //    the pre-delta snapshot) plus explicit drops, deduplicated.
        let mut drops: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &node in &delta.nodes_failed {
            let procs = self.procs_on.at(node.index());
            if procs.is_empty() {
                continue;
            }
            for (task, _) in self.snapshot.colocated_with(node) {
                for &p in procs {
                    drops.insert((p, task));
                }
            }
        }
        // A chunk read by several tasks has one file vertex per task;
        // replica churn reaches every one of them.
        for &(chunk, node) in &delta.replicas_dropped {
            let procs = self.procs_on.at(node.index());
            for task in self.index.indices_of(chunk) {
                drops.extend(procs.iter().map(|&p| (p, task)));
            }
        }
        let staged = !drops.is_empty() || !delta.replicas_added.is_empty();
        for (p, task) in drops {
            self.matcher.stage_remove_edge(p, task);
        }

        // 2. Edge adds from new replica placements.
        for &(chunk, node) in &delta.replicas_added {
            let procs = self.procs_on.at(node.index());
            for task in self.index.indices_of(chunk) {
                let size = self.snapshot.entries()[task].size;
                for &p in procs {
                    self.matcher.stage_add_edge(p, task, size);
                }
            }
        }

        // One repair pass covers every staged edge mutation: phase-shared
        // searches amortize the proof-of-maximality cost across the whole
        // delta instead of paying a full search per edge.
        if staged {
            self.matcher.repair_batch();
        }

        // 3. File removals, descending index so earlier indices stay
        //    valid and the compaction matches `LayoutSnapshot::apply_delta`.
        let mut removed: Vec<usize> = delta
            .files_removed
            .iter()
            .flat_map(|&c| self.index.indices_of(c))
            .collect();
        removed.sort_unstable_by(|a, b| b.cmp(a));
        for task in removed {
            self.matcher.remove_file(task);
        }

        // 4. File additions, appended in delta order like the snapshot.
        for entry in &delta.files_added {
            let mut edges: Vec<(usize, u64)> = Vec::new();
            for node in &entry.locations {
                let procs = self.procs_on.at(node.index());
                edges.extend(procs.iter().map(|&p| (p, entry.size)));
            }
            edges.sort_unstable();
            edges.dedup();
            self.matcher.add_file(&edges);
        }
    }
}

/// Completes the matched owners into a full balanced assignment with the
/// fill policy and reports its locality ([`SingleDataPlan::assemble`]).
fn render_single_data_plan(
    matcher: &IncrementalMatcher,
    snapshot: &LayoutSnapshot,
    procs_on: &ProcsOn,
    fill: FillPolicy,
    seed: u64,
    replans: u64,
) -> SingleDataPlan {
    let graph = matcher.graph();
    let quota = quotas(graph.n_files(), graph.n_procs());
    let owner = matcher.owners_dense().to_vec();
    let load = matcher.load().iter().map(|&l| l as usize).collect();
    let mut rng = fill_rng(seed, replans);
    SingleDataPlan::assemble(snapshot, procs_on, &quota, owner, load, fill, &mut rng)
}

/// Long-lived multi-data planning state advanced by layout deltas.
/// Created by [`OpassPlanner::session`] on a
/// [`crate::PlanRequest::multi`] request.
#[derive(Debug, Clone)]
pub struct MultiDataSession {
    /// Distinct input chunks in first-use order; locations kept current.
    snapshot: LayoutSnapshot,
    /// Chunk-id → snapshot-index map, advanced alongside `snapshot`.
    index: ChunkIndex,
    /// Tasks reading each chunk (parallel to `snapshot` entries).
    readers: Vec<Vec<usize>>,
    /// Processes per node, fixed for the session's lifetime.
    procs_on: ProcsOn,
    n_tasks: usize,
    values: MatchingValues,
    /// Workload demand in bytes; fixed for the session (a chunk leaving
    /// the layout makes its reads remote, it does not shrink the demand).
    total_bytes: u64,
    replans: u64,
    plan: MultiDataPlan,
}

impl MultiDataSession {
    /// Starts from a request's layout (one entry per task input): its
    /// distinct chunks in first-use order, each with the tasks reading
    /// it, become the state deltas advance.
    pub(crate) fn start(layout: &TaskLayout<'_>, placement: &ProcessPlacement) -> Self {
        let inputs = layout.snapshot().entries();
        let mut chunks: Vec<ChunkLayout> = Vec::new();
        let mut readers: Vec<Vec<usize>> = Vec::new();
        let mut slot_of: BTreeMap<ChunkId, usize> = BTreeMap::new();
        for (entry, task) in layout.reads() {
            let input = &inputs[entry];
            let slot = *slot_of.entry(input.chunk).or_insert_with(|| {
                chunks.push(input.clone());
                readers.push(Vec::new());
                chunks.len() - 1
            });
            readers[slot].push(task);
        }
        let snapshot: LayoutSnapshot = chunks.into_iter().collect();
        let procs_on = ProcsOn::nodes(placement);
        let n_tasks = layout.n_tasks();
        // Tabulated from the request's task-major reads: the same table
        // as from the distinct chunks, built by appends only.
        let values = build_values(layout.snapshot(), layout.reads(), &procs_on, n_tasks);
        let outcome = assign_multi_data(&values);
        let total_bytes = layout.snapshot().total_bytes();
        let plan = MultiDataPlan {
            assignment: outcome.assignment,
            matched_bytes: outcome.matched_bytes,
            total_bytes,
            reassignments: outcome.reassignments,
        };
        MultiDataSession {
            index: ChunkIndex::build(&snapshot),
            snapshot,
            readers,
            procs_on,
            n_tasks,
            values,
            total_bytes,
            replans: 0,
            plan,
        }
    }

    /// The plan for the current layout.
    pub fn plan(&self) -> &MultiDataPlan {
        &self.plan
    }

    /// How many deltas this session has absorbed.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Advances the session by `delta`. Replica-level churn patches the
    /// value table in place and re-auctions only the affected tasks; a
    /// delta that adds or removes files falls back to a full Algorithm 1
    /// run, because the task⇄file relationship itself changed.
    pub fn replan(&mut self, delta: &LayoutDelta) -> &MultiDataPlan {
        let mut delta = delta.clone();
        delta.normalize();
        self.replans += 1;
        if !delta.files_added.is_empty() || !delta.files_removed.is_empty() {
            // Resync the reader lists against the pre-delta order, then
            // advance the snapshot and rebuild from scratch.
            let removed: BTreeSet<ChunkId> = delta.files_removed.iter().copied().collect();
            let old_readers = std::mem::take(&mut self.readers);
            let mut readers: Vec<Vec<usize>> = self
                .snapshot
                .entries()
                .iter()
                .zip(old_readers)
                .filter(|(e, _)| !removed.contains(&e.chunk))
                .map(|(_, r)| r)
                .collect();
            readers.extend(delta.files_added.iter().map(|_| Vec::new()));
            self.readers = readers;
            self.snapshot.apply_delta_indexed(&delta, &mut self.index);
            let reads = self.readers.iter().enumerate();
            self.values = build_values(
                &self.snapshot,
                reads.flat_map(|(entry, tasks)| tasks.iter().map(move |&t| (entry, t))),
                &self.procs_on,
                self.n_tasks,
            );
            let outcome = assign_multi_data(&self.values);
            self.plan = MultiDataPlan {
                assignment: outcome.assignment,
                matched_bytes: outcome.matched_bytes,
                total_bytes: self.total_bytes,
                reassignments: outcome.reassignments,
            };
            return &self.plan;
        }

        let mut affected: BTreeSet<usize> = BTreeSet::new();

        // Replica losses: failed nodes journal theirs as `ReplicaDropped`
        // too, so dedupe by (chunk index, node) — each lost replica must
        // be subtracted exactly once, and only if the pre-delta snapshot
        // actually listed it.
        let mut lost: BTreeSet<(usize, NodeId)> = BTreeSet::new();
        for &node in &delta.nodes_failed {
            for (ci, _) in self.snapshot.colocated_with(node) {
                lost.insert((ci, node));
            }
        }
        for &(chunk, node) in &delta.replicas_dropped {
            if let Some(ci) = self.index.get(chunk) {
                if self.snapshot.entries()[ci].locations.contains(&node) {
                    lost.insert((ci, node));
                }
            }
        }
        for &(ci, node) in &lost {
            let procs = self.procs_on.at(node.index());
            if procs.is_empty() {
                continue;
            }
            let size = self.snapshot.entries()[ci].size;
            for &t in &self.readers[ci] {
                affected.insert(t);
                for &p in procs {
                    self.values.subtract(p, t, size);
                }
            }
        }
        for &(chunk, node) in &delta.replicas_added {
            if let Some(ci) = self.index.get(chunk) {
                // Mirror `apply_delta`: adding an already-present replica
                // is a no-op, not a double-count.
                let procs = self.procs_on.at(node.index());
                if procs.is_empty() || self.snapshot.entries()[ci].locations.contains(&node) {
                    continue;
                }
                let size = self.snapshot.entries()[ci].size;
                for &t in &self.readers[ci] {
                    affected.insert(t);
                    for &p in procs {
                        self.values.add(p, t, size);
                    }
                }
            }
        }
        self.snapshot.apply_delta_indexed(&delta, &mut self.index);

        let affected: Vec<usize> = affected.into_iter().collect();
        let outcome = repair_multi_data(&self.values, &self.plan.assignment, &affected);
        self.plan = MultiDataPlan {
            assignment: outcome.assignment,
            matched_bytes: outcome.matched_bytes,
            total_bytes: self.total_bytes,
            reassignments: outcome.reassignments,
        };
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::OpassPlanner;
    use crate::request::PlanRequest;
    use opass_dfs::{DatasetSpec, DfsConfig, Namenode, Placement};
    use opass_matching::Objective;
    use opass_workloads::{Task, Workload};
    use rand::Rng;

    fn single_session(
        planner: &OpassPlanner,
        nn: &Namenode,
        w: &Workload,
        p: &ProcessPlacement,
        seed: u64,
    ) -> SingleDataSession {
        planner
            .session(&PlanRequest::single(nn, w, p).seed(seed))
            .into_single()
            .expect("single session")
    }

    fn single_scratch(
        planner: &OpassPlanner,
        nn: &Namenode,
        w: &Workload,
        p: &ProcessPlacement,
        seed: u64,
    ) -> SingleDataPlan {
        planner
            .plan(&PlanRequest::single(nn, w, p).seed(seed))
            .into_single()
            .expect("single plan")
    }

    fn world(n_nodes: usize, n_chunks: usize) -> (Namenode, Workload, ProcessPlacement) {
        let mut nn = Namenode::new(n_nodes, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("d", n_chunks, 64 << 20),
            &Placement::Random,
            &mut rng,
        );
        let tasks = nn
            .dataset(ds)
            .unwrap()
            .chunks
            .iter()
            .map(|&c| Task::single(c))
            .collect();
        let placement = ProcessPlacement::one_per_node(n_nodes);
        nn.take_events(); // session starts from a settled layout
        (nn, Workload::new("w", tasks), placement)
    }

    fn churn(nn: &mut Namenode, rng: &mut StdRng, step: usize) {
        match step % 3 {
            0 => {
                let node = nn.alive_nodes()[step % nn.alive_nodes().len()];
                nn.fail_node(node).unwrap();
                nn.repair_under_replicated(rng).unwrap();
            }
            1 => {
                nn.add_node();
                nn.rebalance(1.2, rng);
            }
            _ => {
                nn.rebalance(1.1, rng);
            }
        }
    }

    #[test]
    fn single_data_session_tracks_from_scratch_plans_through_churn() {
        let (mut nn, w, placement) = world(12, 96);
        let planner = OpassPlanner {
            fill: FillPolicy::LeastLoaded,
            ..Default::default()
        };
        let mut session = single_session(&planner, &nn, &w, &placement, 7);
        let initial = single_scratch(&planner, &nn, &w, &placement, 7);
        assert_eq!(
            session.plan().assignment.owners(),
            initial.assignment.owners(),
            "a fresh session adopts the scratch solve verbatim"
        );
        let scope: BTreeSet<ChunkId> = w.tasks.iter().map(|t| t.inputs[0]).collect();
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for step in 0..6 {
            churn(&mut nn, &mut rng, step);
            let events = nn.take_events();
            let delta = LayoutDelta::from_events(&events, |c| scope.contains(&c));
            let repaired = session.replan(&delta).clone();
            let scratch = single_scratch(&planner, &nn, &w, &placement, 7);
            assert_eq!(
                repaired.matched_files, scratch.matched_files,
                "step {step}: repaired matching must stay maximum"
            );
            assert_eq!(
                repaired.locality.local_tasks, scratch.locality.local_tasks,
                "step {step}"
            );
            assert_eq!(
                repaired.locality.local_bytes, scratch.locality.local_bytes,
                "step {step}: uniform chunks, byte totals must agree"
            );
            assert!(repaired.assignment.is_balanced(), "step {step}");
            // The session snapshot must equal a fresh capture.
            let chunks: Vec<ChunkId> = w.tasks.iter().map(|t| t.inputs[0]).collect();
            assert_eq!(
                session.snapshot(),
                &LayoutSnapshot::capture(&nn, &chunks),
                "step {step}"
            );
        }
        assert_eq!(session.replans(), 6);
    }

    #[test]
    fn bytes_objective_session_matches_min_cost_flow_through_churn() {
        // Mixed chunk sizes: the byte totals only agree if the repair's
        // exchange pass really restores byte optimality.
        let mut nn = Namenode::new(10, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(0xD00D);
        let big = nn.create_dataset(
            &DatasetSpec::uniform("big", 30, 64 << 20),
            &Placement::Random,
            &mut rng,
        );
        let small = nn.create_dataset(
            &DatasetSpec::uniform("small", 30, 8 << 20),
            &Placement::Random,
            &mut rng,
        );
        let mut chunks = nn.dataset(big).unwrap().chunks.clone();
        chunks.extend(nn.dataset(small).unwrap().chunks.clone());
        let w = Workload::new("mixed", chunks.iter().map(|&c| Task::single(c)).collect());
        let placement = ProcessPlacement::one_per_node(10);
        nn.take_events();
        let planner = OpassPlanner {
            objective: Objective::MatchedBytes,
            fill: FillPolicy::LeastLoaded,
            ..Default::default()
        };
        let mut session = single_session(&planner, &nn, &w, &placement, 3);
        let scope: BTreeSet<ChunkId> = chunks.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(0xF00);
        for step in 0..4 {
            churn(&mut nn, &mut rng, step);
            let delta = LayoutDelta::from_events(&nn.take_events(), |c| scope.contains(&c));
            let repaired = session.replan(&delta).clone();
            let scratch = single_scratch(&planner, &nn, &w, &placement, 3);
            assert_eq!(repaired.matched_files, scratch.matched_files, "step {step}");
            assert_eq!(
                repaired.locality.local_bytes, scratch.locality.local_bytes,
                "step {step}: matched-byte totals must agree under MatchedBytes"
            );
        }
    }

    #[test]
    fn session_replay_is_bit_identical() {
        let (mut nn, w, placement) = world(8, 64);
        let planner = OpassPlanner::default();
        let scope: BTreeSet<ChunkId> = w.tasks.iter().map(|t| t.inputs[0]).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let mut deltas = Vec::new();
        for step in 0..4 {
            churn(&mut nn, &mut rng, step);
            deltas.push(LayoutDelta::from_events(&nn.take_events(), |c| {
                scope.contains(&c)
            }));
        }
        let run = |deltas: &[LayoutDelta]| {
            let (nn2, w2, placement2) = {
                // Rebuild the identical starting world.
                let mut nn = Namenode::new(8, DfsConfig::default());
                let mut rng = StdRng::seed_from_u64(0xA11CE);
                let ds = nn.create_dataset(
                    &DatasetSpec::uniform("d", 64, 64 << 20),
                    &Placement::Random,
                    &mut rng,
                );
                let tasks = nn
                    .dataset(ds)
                    .unwrap()
                    .chunks
                    .iter()
                    .map(|&c| Task::single(c))
                    .collect::<Vec<_>>();
                (
                    nn,
                    Workload::new("w", tasks),
                    ProcessPlacement::one_per_node(8),
                )
            };
            let mut session = single_session(&planner, &nn2, &w2, &placement2, 11);
            let mut plans = Vec::new();
            for d in deltas {
                plans.push(session.replan(d).clone());
            }
            plans
        };
        let a = run(&deltas);
        let b = run(&deltas);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.assignment.owners(), pb.assignment.owners());
            assert_eq!(pa.matched_files, pb.matched_files);
            assert_eq!(pa.filled_files, pb.filled_files);
            assert_eq!(pa.locality, pb.locality);
        }
        let _ = placement;
    }

    /// A skewed layout: three chunks in four keep all their replicas on
    /// the first six nodes, so those nodes' processes run out of quota
    /// and the plan fills many files. Chunks come in two sizes, which
    /// gives the bytes objective something to choose between.
    fn skewed_layout(n_nodes: usize, n_chunks: usize, rng: &mut StdRng) -> LayoutSnapshot {
        let mut nn = Namenode::new(n_nodes, DfsConfig::default());
        let mut ids = Vec::new();
        for (name, size) in [("big", 64u64 << 20), ("small", 8 << 20)] {
            let locations: Vec<Vec<NodeId>> = (0..n_chunks / 2)
                .map(|_| {
                    let hot = if rng.gen_range(0..4) == 0 { n_nodes } else { 6 };
                    let mut nodes = Vec::new();
                    while nodes.len() < 3 {
                        let node = NodeId(rng.gen_range(0..hot as u32));
                        if !nodes.contains(&node) {
                            nodes.push(node);
                        }
                    }
                    nodes
                })
                .collect();
            let spec = DatasetSpec::uniform(name, n_chunks / 2, size);
            let ds = nn.create_dataset_placed(&spec, locations);
            ids.extend(nn.dataset(ds).unwrap().chunks.iter().copied());
        }
        LayoutSnapshot::capture(&nn, &ids)
    }

    /// A seeded delta against `layout`: replica moves on a few chunks,
    /// now and then a node failure, a file removal and a new file.
    fn seeded_delta(
        layout: &LayoutSnapshot,
        n_nodes: usize,
        failed: &mut BTreeSet<NodeId>,
        next_chunk: &mut u64,
        rng: &mut StdRng,
    ) -> LayoutDelta {
        let entries = layout.entries();
        let alive: Vec<NodeId> = (0..n_nodes as u32)
            .map(NodeId)
            .filter(|n| !failed.contains(n))
            .collect();
        let mut delta = LayoutDelta::default();
        for _ in 0..rng.gen_range(1..5) {
            let entry = &entries[rng.gen_range(0..entries.len())];
            let to = alive[rng.gen_range(0..alive.len())];
            if entry.locations.len() > 1 && !entry.locations.contains(&to) {
                let from = entry.locations[rng.gen_range(0..entry.locations.len())];
                delta.replicas_dropped.push((entry.chunk, from));
                delta.replicas_added.push((entry.chunk, to));
            }
        }
        if rng.gen_range(0..6) == 0 && alive.len() > 6 {
            let node = alive[rng.gen_range(3..alive.len())];
            failed.insert(node);
            delta.nodes_failed.push(node);
            for (ci, _) in layout.colocated_with(node) {
                delta.replicas_dropped.push((entries[ci].chunk, node));
            }
        }
        if rng.gen_bool(0.5) {
            delta
                .files_removed
                .push(entries[rng.gen_range(0..entries.len())].chunk);
        }
        if rng.gen_bool(0.5) {
            let mut locations = Vec::new();
            while locations.len() < 2 {
                let node = alive[rng.gen_range(0..alive.len())];
                if !locations.contains(&node) {
                    locations.push(node);
                }
            }
            delta.files_added.push(ChunkLayout {
                chunk: ChunkId(*next_chunk),
                size: 8 << 20,
                locations: locations.into(),
            });
            *next_chunk += 1;
        }
        // A chunk both removed and moved keeps only the removal.
        let gone: BTreeSet<ChunkId> = delta.files_removed.iter().copied().collect();
        delta.replicas_added.retain(|(c, _)| !gone.contains(c));
        delta.replicas_dropped.retain(|(c, _)| !gone.contains(c));
        delta.normalize();
        delta
    }

    fn assert_same_plan(resumed: &SingleDataPlan, started: &SingleDataPlan, at: &str) {
        assert_eq!(
            resumed.assignment.owners(),
            started.assignment.owners(),
            "{at}: owners"
        );
        assert_eq!(
            resumed.matched_files, started.matched_files,
            "{at}: matched"
        );
        assert_eq!(resumed.filled_files, started.filled_files, "{at}: filled");
        assert_eq!(resumed.locality, started.locality, "{at}: locality");
        assert_eq!(
            resumed.locality.byte_fraction().to_bits(),
            started.locality.byte_fraction().to_bits(),
            "{at}: byte fraction"
        );
    }

    #[test]
    fn a_session_resumed_from_plan_owners_tracks_a_started_one() {
        let n_nodes = 12;
        let placements = [
            ("one per node", ProcessPlacement::one_per_node(n_nodes)),
            (
                "two per node",
                ProcessPlacement::round_robin(2 * n_nodes, n_nodes),
            ),
            (
                "nodes without processes",
                ProcessPlacement::explicit([0, 1, 2, 3, 4, 5, 0, 1].map(NodeId).to_vec()),
            ),
        ];
        for objective in [Objective::MatchCount, Objective::MatchedBytes] {
            for fill in [FillPolicy::Random, FillPolicy::LeastLoaded] {
                let planner = OpassPlanner {
                    objective,
                    fill,
                    ..Default::default()
                };
                for (name, placement) in &placements {
                    let mut rng = StdRng::seed_from_u64(0x2E5 ^ placement.n_procs() as u64);
                    let layout = skewed_layout(n_nodes, 96, &mut rng);
                    let request = PlanRequest::single_from_layout(&layout, placement).seed(5);
                    let plan = planner.plan(&request).into_single().expect("single plan");
                    assert!(plan.filled_files > 0, "{name}: the layout fills files");
                    let owners: Vec<u32> =
                        plan.assignment.owners().iter().map(|&p| p as u32).collect();
                    let mut resumed = planner.resume_session(&request, &owners);
                    let mut started = planner
                        .session(&request)
                        .into_single()
                        .expect("single session");
                    let at = format!("{objective:?} {fill:?} {name}");
                    assert_eq!(resumed.plan().matched_files, plan.matched_files, "{at}");
                    assert_same_plan(resumed.plan(), &plan, &at);
                    assert_same_plan(resumed.plan(), started.plan(), &at);
                    assert_eq!(resumed.matcher(), started.matcher(), "{at}: matching");

                    let (mut failed, mut next_chunk) = (BTreeSet::new(), 1 << 40);
                    for step in 0..24 {
                        let delta = seeded_delta(
                            resumed.snapshot(),
                            n_nodes,
                            &mut failed,
                            &mut next_chunk,
                            &mut rng,
                        );
                        let at = format!("{at} step {step}");
                        let want = started.replan(&delta).clone();
                        assert_same_plan(resumed.replan(&delta), &want, &at);
                        assert_eq!(resumed.snapshot(), started.snapshot(), "{at}: layout");
                        // And both stay maximum: a scratch plan on the
                        // advanced layout matches no more files or bytes.
                        let scratch = planner
                            .plan(
                                &PlanRequest::single_from_layout(resumed.snapshot(), placement)
                                    .seed(5),
                            )
                            .into_single()
                            .expect("single plan");
                        assert_eq!(want.matched_files, scratch.matched_files, "{at}: scratch");
                        if objective == Objective::MatchedBytes {
                            assert_eq!(
                                want.locality.local_bytes, scratch.locality.local_bytes,
                                "{at}: scratch bytes"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multi_data_session_repairs_replica_churn_and_falls_back_on_file_churn() {
        let mut nn = Namenode::new(8, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let a = nn.create_dataset(
            &DatasetSpec::uniform("a", 24, 30 << 20),
            &Placement::Random,
            &mut rng,
        );
        let b = nn.create_dataset(
            &DatasetSpec::uniform("b", 24, 20 << 20),
            &Placement::Random,
            &mut rng,
        );
        let ca = nn.dataset(a).unwrap().chunks.clone();
        let cb = nn.dataset(b).unwrap().chunks.clone();
        let w = Workload::new(
            "multi",
            (0..24).map(|i| Task::multi(vec![ca[i], cb[i]])).collect(),
        );
        let placement = ProcessPlacement::one_per_node(8);
        nn.take_events();
        let planner = OpassPlanner::default();
        let mut session = planner
            .session(&PlanRequest::multi(&nn, &w, &placement))
            .into_multi()
            .expect("multi session");
        let baseline = planner
            .plan(&PlanRequest::multi(&nn, &w, &placement))
            .into_multi()
            .expect("multi plan");
        assert_eq!(session.plan().assignment, baseline.assignment);
        assert_eq!(session.plan().matched_bytes, baseline.matched_bytes);
        assert_eq!(session.plan().total_bytes, baseline.total_bytes);

        let scope: BTreeSet<ChunkId> = ca.iter().chain(cb.iter()).copied().collect();
        // Replica-level churn: repair path.
        nn.rebalance(1.1, &mut rng);
        let delta = LayoutDelta::from_events(&nn.take_events(), |c| scope.contains(&c));
        let plan = session.replan(&delta).clone();
        assert!(plan.assignment.is_balanced());
        // Value table patched in place must equal a rebuild from scratch.
        let fresh = crate::builder::build_matching_values(&nn, &w, &placement);
        assert_eq!(session.values, fresh, "patched values diverged");

        // Node failure + repair: still the repair path.
        let victim = nn.alive_nodes()[0];
        nn.fail_node(victim).unwrap();
        nn.repair_under_replicated(&mut rng).unwrap();
        let delta = LayoutDelta::from_events(&nn.take_events(), |c| scope.contains(&c));
        let plan = session.replan(&delta).clone();
        assert!(plan.assignment.is_balanced());
        let fresh = crate::builder::build_matching_values(&nn, &w, &placement);
        assert_eq!(
            session.values, fresh,
            "patched values diverged after failure"
        );

        // File-level churn: the fallback path must equal a full re-plan.
        let delta = LayoutDelta {
            files_removed: vec![ca[3]],
            ..Default::default()
        };
        let plan = session.replan(&delta).clone();
        assert!(plan.assignment.is_balanced());
        assert_eq!(session.replans(), 3);
        let _ = plan;
    }
}
