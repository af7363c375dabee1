//! Optimization of Parallel Single-Data Access (paper Section IV-B).
//!
//! Each task reads exactly one chunk file and every process must receive an
//! equal share of tasks. The matcher encodes the problem as a flow network
//!
//! ```text
//!   s --(quota_p)--> process p --(1)--> file f --(1)--> t
//! ```
//!
//! with a process→file edge wherever the locality graph has one, and runs
//! max-flow — Dinic in place on the locality graph
//! ([`crate::maxflow::dinic`]), building no network. Augmenting paths
//! implement the paper's *cancellation policy*:
//! a file tentatively matched to one process is rerouted when that increases
//! the total matching. Files the flow leaves unmatched (data distribution is
//! never perfectly even) are handed to processes with remaining quota by a
//! fill policy — the paper assigns them randomly; a least-loaded variant is
//! provided for the ablation study.
//!
//! Capacities are in *task units* rather than bytes: the paper's evaluation
//! uses equal-size chunks, and unit capacities guarantee the integral flow
//! assigns each file to exactly one process (a byte-capacity network could
//! split a file across two processes).

use crate::arena::NONE;
use crate::assignment::Assignment;
use crate::graph::BipartiteGraph;
use crate::maxflow::{dinic, FlowAlgo, MinCostFlowNetwork};
use rand::Rng;

/// How files left unmatched by max-flow are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillPolicy {
    /// Assign each leftover file to a uniformly random process with spare
    /// quota — the policy described in the paper.
    #[default]
    Random,
    /// Assign each leftover file to the least-loaded process with spare
    /// quota (ablation variant; strictly better balance under skew).
    LeastLoaded,
}

/// What the matcher optimizes among maximum matchings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Maximize the number of locally-matched files (the paper's unit
    /// formulation; all chunks are equal-size in its evaluation).
    #[default]
    MatchCount,
    /// Among maximum-cardinality matchings, maximize the locally-matched
    /// *bytes* (min-cost max-flow with cost = −size per matched file) —
    /// the right objective when chunk sizes differ.
    MatchedBytes,
}

/// Configuration for the single-data matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SingleDataMatcher {
    /// Max-flow implementation. [`FlowAlgo`] has one variant, so no
    /// solve reads this; the field stays only because the frozen
    /// benchmark package sets it (ROADMAP item 4(c)).
    pub algo: FlowAlgo,
    /// Fill policy for unmatched files.
    pub fill: FillPolicy,
    /// Optimization objective.
    pub objective: Objective,
}

/// Result of a single-data matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingleDataOutcome {
    /// The complete, balanced assignment (every file owned).
    pub assignment: Assignment,
    /// Files matched locally by max-flow.
    pub matched_files: usize,
    /// Files assigned by the fill policy (read remotely at runtime).
    pub filled_files: usize,
}

/// Per-process task quotas: `n_files` split as evenly as possible, the
/// first `n_files % n_procs` processes receiving one extra.
pub fn quotas(n_files: usize, n_procs: usize) -> Vec<usize> {
    assert!(n_procs > 0, "need at least one process");
    let base = n_files / n_procs;
    let extra = n_files % n_procs;
    (0..n_procs)
        .map(|p| base + usize::from(p < extra))
        .collect()
}

/// Capability-weighted quotas for heterogeneous clusters: `n_files` split
/// proportionally to `weights` (e.g. relative disk bandwidth) by the
/// largest-remainder method, so quotas sum to exactly `n_files`.
///
/// # Panics
///
/// Panics if `weights` is empty, contains a non-finite or negative value,
/// or sums to zero.
pub fn weighted_quotas(n_files: usize, weights: &[f64]) -> Vec<usize> {
    assert!(!weights.is_empty(), "need at least one process");
    let total: f64 = weights.iter().sum();
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0) && total > 0.0,
        "weights must be non-negative with a positive sum"
    );
    let shares: Vec<f64> = weights.iter().map(|w| n_files as f64 * w / total).collect();
    let mut quota: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let assigned: usize = quota.iter().sum();
    // Hand the remainder to the largest fractional parts (ties: lowest
    // index, deterministic).
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a] - shares[a].floor();
        let fb = shares[b] - shares[b].floor();
        fb.partial_cmp(&fa)
            .expect("finite fractions")
            .then(a.cmp(&b))
    });
    for &p in order.iter().take(n_files - assigned) {
        quota[p] += 1;
    }
    debug_assert_eq!(quota.iter().sum::<usize>(), n_files);
    quota
}

/// Result of the two-tier (node-then-rack) matcher — this repository's
/// rack-locality extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoTierOutcome {
    /// The complete, balanced assignment.
    pub assignment: Assignment,
    /// Files matched node-locally.
    pub node_matched: usize,
    /// Files matched rack-locally (after node matching).
    pub rack_matched: usize,
    /// Files assigned by the fill policy (cross-rack at runtime).
    pub filled_files: usize,
}

impl SingleDataMatcher {
    /// Computes a balanced assignment maximizing local reads with the
    /// default even quotas.
    ///
    /// The RNG is only consulted by [`FillPolicy::Random`]; with
    /// [`FillPolicy::LeastLoaded`] the result is RNG-independent.
    pub fn assign<R: Rng>(&self, graph: &BipartiteGraph, rng: &mut R) -> SingleDataOutcome {
        let quota = quotas(graph.n_files(), graph.n_procs().max(1));
        self.assign_with_quotas(graph, &quota, rng)
    }

    /// Like [`Self::assign`] but with explicit per-process quotas — the
    /// heterogeneous-cluster extension (quotas proportional to node
    /// capability; see [`weighted_quotas`]).
    ///
    /// # Panics
    ///
    /// Panics unless `quota` has one entry per process and sums to the
    /// file count.
    pub fn assign_with_quotas<R: Rng>(
        &self,
        graph: &BipartiteGraph,
        quota: &[usize],
        rng: &mut R,
    ) -> SingleDataOutcome {
        let m = graph.n_procs();
        let n = graph.n_files();
        assert!(m > 0, "need at least one process");
        assert_eq!(quota.len(), m, "one quota per process");
        assert_eq!(
            quota.iter().sum::<usize>(),
            n,
            "quotas must sum to the file count"
        );

        let mut owner: Vec<Option<usize>> = vec![None; n];
        let mut load = vec![0usize; m];
        let matched_files = self.flow_match_with_residual(graph, quota, &mut owner, &mut load);
        let filled_files = self.fill(quota, &mut owner, &mut load, rng);

        let owner: Vec<usize> = owner.into_iter().map(|o| o.expect("all filled")).collect();
        SingleDataOutcome {
            assignment: Assignment::from_owners(owner, m),
            matched_files,
            filled_files,
        }
    }

    /// Two-tier matching: first maximize *node-local* assignments on
    /// `node_graph`, then — for files the node tier could not place — run a
    /// second max-flow against `rack_graph` (edges wherever a replica
    /// shares the process's rack) within the remaining quota, and fill the
    /// rest. Both graphs must agree on dimensions.
    pub fn assign_two_tier<R: Rng>(
        &self,
        node_graph: &BipartiteGraph,
        rack_graph: &BipartiteGraph,
        rng: &mut R,
    ) -> TwoTierOutcome {
        let m = node_graph.n_procs();
        let n = node_graph.n_files();
        assert_eq!(rack_graph.n_procs(), m, "graph process counts differ");
        assert_eq!(rack_graph.n_files(), n, "graph file counts differ");
        assert!(m > 0, "need at least one process");
        let quota = quotas(n, m);

        let mut owner: Vec<Option<usize>> = vec![None; n];
        let mut load = vec![0usize; m];
        let node_matched = self.flow_match_with_residual(node_graph, &quota, &mut owner, &mut load);

        // Second tier: only unmatched files, only spare quota, and only
        // rack edges for files the node tier skipped.
        let mut rack_restricted = BipartiteGraph::new(m, n);
        for p in 0..m {
            if load[p] >= quota[p] {
                continue;
            }
            for (f, bytes) in rack_graph.files_of(p) {
                if owner[f].is_none() {
                    rack_restricted.add_edge(p, f, bytes);
                }
            }
        }
        let residual_quota: Vec<usize> = (0..m).map(|p| quota[p] - load[p]).collect();
        let rack_matched =
            self.flow_match_with_residual(&rack_restricted, &residual_quota, &mut owner, &mut load);

        let filled_files = self.fill(&quota, &mut owner, &mut load, rng);
        let owner: Vec<usize> = owner.into_iter().map(|o| o.expect("all filled")).collect();
        TwoTierOutcome {
            assignment: Assignment::from_owners(owner, m),
            node_matched,
            rack_matched,
            filled_files,
        }
    }

    /// Runs only the matching stage under the default even quotas — no
    /// fill — returning the owner per file and the matched count. This is
    /// exactly the matching [`Self::assign`] starts from, exposed so a
    /// long-lived planner can adopt it into an incremental matcher (see
    /// [`crate::IncrementalMatcher::from_matching`]) and stay
    /// bit-identical to the from-scratch solve.
    pub fn flow_owners(&self, graph: &BipartiteGraph) -> (Vec<Option<usize>>, usize) {
        let m = graph.n_procs();
        assert!(m > 0, "need at least one process");
        let quota = quotas(graph.n_files(), m);
        let mut owner = vec![None; graph.n_files()];
        let mut load = vec![0usize; m];
        let matched = self.flow_match_with_residual(graph, &quota, &mut owner, &mut load);
        (owner, matched)
    }

    /// Runs max-flow over `graph` under `quota` — the full quotas, or
    /// what an earlier tier left of them — recording winners into
    /// `owner`/`load`. Files already owned must not appear in the graph.
    fn flow_match_with_residual(
        &self,
        graph: &BipartiteGraph,
        quota: &[usize],
        owner: &mut [Option<usize>],
        load: &mut [usize],
    ) -> usize {
        debug_assert!(
            (0..graph.n_procs()).all(|p| graph
                .files_raw(p)
                .iter()
                .all(|&f| owner[f as usize].is_none())),
            "a matched file is still in the graph"
        );
        if self.objective == Objective::MatchedBytes {
            return self.flow_match_bytes(graph, quota, owner, load);
        }
        let flow = dinic::bipartite_max_flow(graph, quota);
        let mut matched = 0;
        for (o, &p) in owner.iter_mut().zip(&flow.owner) {
            if p != NONE {
                *o = Some(p as usize);
                load[p as usize] += 1;
                matched += 1;
            }
        }
        debug_assert_eq!(matched as u64, flow.work.paths);
        matched
    }

    /// Byte-weighted matching: min-cost max-flow with cost −size on the
    /// locality edges, so the maximum-cardinality matching that keeps the
    /// most bytes local is selected.
    fn flow_match_bytes(
        &self,
        graph: &BipartiteGraph,
        residual_quota: &[usize],
        owner: &mut [Option<usize>],
        load: &mut [usize],
    ) -> usize {
        let m = graph.n_procs();
        let n = graph.n_files();
        let s = 0usize;
        let proc_v = |p: usize| 1 + p;
        let file_v = |f: usize| 1 + m + f;
        let t = 1 + m + n;
        let mut net = MinCostFlowNetwork::new(t + 1);
        for (p, &q) in residual_quota.iter().enumerate() {
            if q > 0 {
                net.add_edge(s, proc_v(p), q as u64, 0);
            }
        }
        let mut match_edges = Vec::with_capacity(graph.edge_count());
        for p in 0..m {
            for (f, bytes) in graph.files_of(p) {
                let cost = -i64::try_from(bytes).expect("file size fits i64");
                let e = net.add_edge(proc_v(p), file_v(f), 1, cost);
                match_edges.push((p, f, e));
            }
        }
        for (f, o) in owner.iter().enumerate() {
            if o.is_none() {
                net.add_edge(file_v(f), t, 1, 0);
            }
        }
        let (matched, _cost) = net.min_cost_max_flow(s, t);
        for &(p, f, e) in &match_edges {
            if net.flow_on(e) == 1 {
                debug_assert!(owner[f].is_none(), "file {f} matched twice");
                owner[f] = Some(p);
                load[p] += 1;
            }
        }
        matched as usize
    }

    /// Fills unowned files into spare quota per the fill policy. Returns
    /// how many files were filled.
    fn fill<R: Rng>(
        &self,
        quota: &[usize],
        owner: &mut [Option<usize>],
        load: &mut [usize],
        rng: &mut R,
    ) -> usize {
        let mut filled = 0usize;
        for o in owner.iter_mut().filter(|o| o.is_none()) {
            let mut spare = (0..quota.len()).filter(|&p| load[p] < quota[p]);
            let chosen = match self.fill {
                // The `k`-th spare process in ascending order, `k` drawn
                // over their count — no candidate list is built.
                FillPolicy::Random => {
                    let k = rng.gen_range(0..spare.clone().count());
                    spare.nth(k)
                }
                FillPolicy::LeastLoaded => spare.min_by_key(|&p| (load[p], p)),
            }
            .expect("quotas sum to n, so spare capacity must exist");
            *o = Some(chosen);
            load[chosen] += 1;
            filled += 1;
        }
        filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn quota_distribution() {
        assert_eq!(quotas(10, 5), vec![2, 2, 2, 2, 2]);
        assert_eq!(quotas(11, 5), vec![3, 2, 2, 2, 2]);
        assert_eq!(quotas(3, 5), vec![1, 1, 1, 0, 0]);
        assert_eq!(quotas(0, 3), vec![0, 0, 0]);
    }

    #[test]
    fn perfect_locality_when_data_is_even() {
        // 4 procs, 8 files, each proc co-located with exactly its 2 files.
        let mut g = BipartiteGraph::new(4, 8);
        for p in 0..4 {
            g.add_edge(p, 2 * p, 64);
            g.add_edge(p, 2 * p + 1, 64);
        }
        let out = SingleDataMatcher::default().assign(&g, &mut rng());
        assert_eq!(out.matched_files, 8);
        assert_eq!(out.filled_files, 0);
        assert!(out.assignment.is_balanced());
        for p in 0..4 {
            let mut tasks = out.assignment.tasks_of(p).to_vec();
            tasks.sort_unstable();
            assert_eq!(tasks, vec![2 * p, 2 * p + 1]);
        }
    }

    #[test]
    fn cancellation_reroutes_greedy_choice() {
        // File 0 is co-located with procs {0,1}; file 1 only with proc 0.
        // Quotas are 1 each: the optimal matching gives file 1 to proc 0 and
        // file 0 to proc 1, which requires cancelling a greedy (0 -> file 0)
        // choice via a residual path.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0, 64);
        g.add_edge(1, 0, 64);
        g.add_edge(0, 1, 64);
        let out = SingleDataMatcher::default().assign(&g, &mut rng());
        assert_eq!(out.matched_files, 2);
        assert_eq!(out.assignment.owner_of(1), 0);
        assert_eq!(out.assignment.owner_of(0), 1);
    }

    #[test]
    fn isolated_files_are_filled_and_balance_holds() {
        // 2 procs, 4 files, but only file 0 has any locality.
        let mut g = BipartiteGraph::new(2, 4);
        g.add_edge(0, 0, 64);
        let out = SingleDataMatcher::default().assign(&g, &mut rng());
        assert_eq!(out.matched_files, 1);
        assert_eq!(out.filled_files, 3);
        assert!(out.assignment.is_balanced());
        assert_eq!(out.assignment.tasks_of(0).len(), 2);
        assert_eq!(out.assignment.tasks_of(1).len(), 2);
    }

    #[test]
    fn least_loaded_fill_is_deterministic() {
        let g = BipartiteGraph::new(3, 9); // no locality at all
        let matcher = SingleDataMatcher {
            fill: FillPolicy::LeastLoaded,
            ..Default::default()
        };
        let a = matcher.assign(&g, &mut rng());
        let b = matcher.assign(&g, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b, "least-loaded fill must ignore the RNG");
        assert!(a.assignment.is_balanced());
    }

    #[test]
    fn quota_respected_under_skewed_locality() {
        // All 6 files live on proc 0's node; quota forces 3 of them away.
        let mut g = BipartiteGraph::new(2, 6);
        for f in 0..6 {
            g.add_edge(0, f, 64);
        }
        let out = SingleDataMatcher::default().assign(&g, &mut rng());
        assert_eq!(out.matched_files, 3, "proc 0 quota is 3");
        assert_eq!(out.filled_files, 3);
        assert!(out.assignment.is_balanced());
    }

    #[test]
    fn matched_fraction_metric() {
        let mut g = BipartiteGraph::new(2, 4);
        g.add_edge(0, 0, 64);
        g.add_edge(1, 1, 64);
        let out = SingleDataMatcher::default().assign(&g, &mut rng());
        // Half the files are matched to a co-located process.
        assert_eq!((out.matched_files, out.filled_files), (2, 2));
    }

    #[test]
    fn weighted_quotas_are_proportional_and_exact() {
        let q = weighted_quotas(100, &[2.0, 1.0, 1.0]);
        assert_eq!(q, vec![50, 25, 25]);
        let q = weighted_quotas(10, &[1.0, 1.0, 1.0]);
        assert_eq!(q.iter().sum::<usize>(), 10);
        assert!(q.iter().all(|&x| (3..=4).contains(&x)), "{q:?}");
        // Zero-weight nodes get nothing.
        let q = weighted_quotas(8, &[1.0, 0.0]);
        assert_eq!(q, vec![8, 0]);
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn weighted_quotas_reject_all_zero() {
        let _ = weighted_quotas(4, &[0.0, 0.0]);
    }

    #[test]
    fn explicit_quotas_respected() {
        let mut g = BipartiteGraph::new(2, 6);
        for f in 0..6 {
            g.add_edge(0, f, 64);
            g.add_edge(1, f, 64);
        }
        let out = SingleDataMatcher::default().assign_with_quotas(&g, &[4, 2], &mut rng());
        assert_eq!(out.assignment.tasks_of(0).len(), 4);
        assert_eq!(out.assignment.tasks_of(1).len(), 2);
        assert_eq!(out.matched_files, 6);
    }

    #[test]
    fn two_tier_prefers_node_then_rack() {
        // 4 procs in 2 racks: {0,1} and {2,3}. Files 0..4.
        // Node graph: file 0 on proc 0 only. Rack graph additionally lets
        // rack peers reach files: file 1 reachable by procs 0,1 (rack 0);
        // files 2,3 by procs 2,3 (rack 1).
        let mut node_g = BipartiteGraph::new(4, 4);
        node_g.add_edge(0, 0, 64);
        let mut rack_g = BipartiteGraph::new(4, 4);
        rack_g.add_edge(0, 0, 64);
        rack_g.add_edge(1, 0, 64);
        rack_g.add_edge(0, 1, 64);
        rack_g.add_edge(1, 1, 64);
        rack_g.add_edge(2, 2, 64);
        rack_g.add_edge(3, 2, 64);
        rack_g.add_edge(2, 3, 64);
        rack_g.add_edge(3, 3, 64);
        let out = SingleDataMatcher::default().assign_two_tier(&node_g, &rack_g, &mut rng());
        assert_eq!(out.node_matched, 1);
        assert_eq!(out.assignment.owner_of(0), 0);
        // Files 1..4 all rack-matchable within quota 1 each.
        assert_eq!(out.rack_matched, 3);
        assert_eq!(out.filled_files, 0);
        assert!(out.assignment.is_balanced());
        assert_eq!(out.assignment.owner_of(1), 1, "file 1 must stay in rack 0");
    }

    #[test]
    fn two_tier_fill_covers_unreachable_files() {
        let node_g = BipartiteGraph::new(2, 4);
        let rack_g = BipartiteGraph::new(2, 4);
        let out = SingleDataMatcher::default().assign_two_tier(&node_g, &rack_g, &mut rng());
        assert_eq!(out.node_matched + out.rack_matched, 0);
        assert_eq!(out.filled_files, 4);
        assert!(out.assignment.is_balanced());
    }

    #[test]
    fn two_tier_never_worse_than_node_only_in_rack_hits() {
        // Dense-ish deterministic instance.
        let mut node_g = BipartiteGraph::new(4, 16);
        let mut rack_g = BipartiteGraph::new(4, 16);
        let mut state = 777u64;
        for f in 0..16 {
            for p in 0..4 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state % 4 == 0 {
                    node_g.add_edge(p, f, 64);
                }
                if state % 2 == 0 {
                    rack_g.add_edge(p, f, 64);
                }
            }
        }
        let node_only = SingleDataMatcher::default().assign(&node_g, &mut rng());
        let two_tier = SingleDataMatcher::default().assign_two_tier(&node_g, &rack_g, &mut rng());
        assert_eq!(two_tier.node_matched, node_only.matched_files);
        assert!(two_tier.filled_files <= node_only.filled_files);
    }

    #[test]
    fn bytes_objective_matches_same_count_but_more_bytes() {
        // Proc 0 is co-located with a 100-byte file and a 10-byte file but
        // has quota 1; an unconstrained second proc takes the rest. The
        // unit objective may pick either; the bytes objective must keep
        // the 100-byte file local.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0, 100);
        g.add_edge(0, 1, 10);
        let unit = SingleDataMatcher::default().assign(&g, &mut rng());
        let bytes = SingleDataMatcher {
            objective: Objective::MatchedBytes,
            ..Default::default()
        }
        .assign(&g, &mut rng());
        assert_eq!(unit.matched_files, 1);
        assert_eq!(bytes.matched_files, 1, "cardinality must not regress");
        assert_eq!(
            bytes.assignment.owner_of(0),
            0,
            "bytes objective keeps the 100-byte file local"
        );
    }

    #[test]
    fn bytes_objective_equals_unit_on_uniform_sizes() {
        let mut g = BipartiteGraph::new(3, 9);
        let mut state = 5u64;
        for f in 0..9 {
            for p in 0..3 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state % 2 == 0 {
                    g.add_edge(p, f, 64);
                }
            }
        }
        let unit = SingleDataMatcher::default().assign(&g, &mut rng());
        let bytes = SingleDataMatcher {
            objective: Objective::MatchedBytes,
            fill: FillPolicy::LeastLoaded,
            ..Default::default()
        }
        .assign(&g, &mut rng());
        assert_eq!(unit.matched_files, bytes.matched_files);
    }

    #[test]
    fn more_procs_than_files() {
        let mut g = BipartiteGraph::new(5, 2);
        g.add_edge(3, 0, 64);
        g.add_edge(4, 1, 64);
        let out = SingleDataMatcher::default().assign(&g, &mut rng());
        // Quotas are [1,1,0,0,0]: procs 3 and 4 have no quota, so their
        // locality cannot be used; both files are filled into procs 0/1.
        assert_eq!(out.assignment.n_tasks(), 2);
        assert!(out.assignment.is_balanced());
    }

    #[test]
    fn a_long_augmenting_path_plans_on_a_worker_sized_stack() {
        // Process `i` holds files `i` and `i + 1`, the last process only
        // file 0: the first phase matches every process but the last to
        // its lower file, and the second finds one augmenting path
        // through all of them. A spawned thread's default 2 MiB stack is
        // what a pool worker plans on.
        let m = 50_000;
        let mut g = BipartiteGraph::new(m, m);
        for p in 0..m - 1 {
            g.add_edge(p, p, 64);
            g.add_edge(p, p + 1, 64);
        }
        g.add_edge(m - 1, 0, 64);
        let (owners, matched) = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || SingleDataMatcher::default().flow_owners(&g))
            .expect("spawn")
            .join()
            .expect("the solve returns");
        assert_eq!(matched, m);
        assert_eq!(owners[0], Some(m - 1));
        assert!((1..m).all(|f| owners[f] == Some(f - 1)));
    }

    /// The matching stage and the fill as they stood before the in-place
    /// solver and the counted fill: the general-network Dinic oracle read
    /// back through a `(p, f, edge)` table, and a candidate list collected
    /// per unowned file.
    fn reference_match_and_fill(
        matcher: &SingleDataMatcher,
        graph: &BipartiteGraph,
        residual_quota: &[usize],
        quota: &[usize],
        owner: &mut [Option<usize>],
        load: &mut [usize],
        rng: &mut StdRng,
    ) -> usize {
        use crate::maxflow::{dinic, FlowNetwork};
        let (m, n) = (graph.n_procs(), graph.n_files());
        let (s, t) = (0, 1 + m + n);
        let mut net = FlowNetwork::new(t + 1);
        for (p, &q) in residual_quota.iter().enumerate() {
            if q > 0 {
                net.add_edge(s, 1 + p, q as u64);
            }
        }
        let mut match_edges = Vec::new();
        for p in 0..m {
            for &f in graph.files_raw(p) {
                let e = net.add_edge(1 + p, 1 + m + f as usize, 1);
                match_edges.push((p, f as usize, e));
            }
        }
        for (f, o) in owner.iter().enumerate() {
            if o.is_none() {
                net.add_edge(1 + m + f, t, 1);
            }
        }
        let matched = dinic::max_flow(&mut net, s, t) as usize;
        for &(p, f, e) in &match_edges {
            if net.flow_on(e) == 1 {
                owner[f] = Some(p);
                load[p] += 1;
            }
        }
        #[allow(clippy::needless_range_loop)]
        for f in 0..owner.len() {
            if owner[f].is_some() {
                continue;
            }
            let candidates: Vec<usize> = (0..m).filter(|&p| load[p] < quota[p]).collect();
            let chosen = match matcher.fill {
                FillPolicy::Random => candidates[rng.gen_range(0..candidates.len())],
                FillPolicy::LeastLoaded => *candidates
                    .iter()
                    .min_by_key(|&&p| (load[p], p))
                    .expect("non-empty candidates"),
            };
            owner[f] = Some(chosen);
            load[chosen] += 1;
        }
        matched
    }

    #[test]
    fn match_read_back_and_fill_repeat_the_reference_owner_for_owner() {
        // Random graphs with some files already owned by an earlier tier
        // (the `assign_two_tier` second pass): every owner, load, matched
        // count and the generator state after the fill must equal what
        // the match-edge table and the candidate lists produced.
        let mut rng = StdRng::seed_from_u64(0x51D);
        for case in 0..3_000 {
            let m = rng.gen_range(1usize..9);
            let n = rng.gen_range(0usize..48);
            let matcher = SingleDataMatcher {
                fill: [FillPolicy::Random, FillPolicy::LeastLoaded][case / 2 % 2],
                ..Default::default()
            };
            let quota = quotas(n, m);
            // An earlier tier owns some files within quota.
            let mut owner: Vec<Option<usize>> = vec![None; n];
            let mut load = vec![0usize; m];
            let owned_percent = [0, 25, 70][case % 3];
            for o in owner.iter_mut() {
                let p = rng.gen_range(0..m);
                if rng.gen_range(0u32..100) < owned_percent && load[p] < quota[p] {
                    *o = Some(p);
                    load[p] += 1;
                }
            }
            let mut g = BipartiteGraph::new(m, n);
            for _ in 0..rng.gen_range(0usize..140) {
                let (p, f) = (rng.gen_range(0..m), rng.gen_range(0..n.max(1)));
                if f < n && owner[f].is_none() && load[p] < quota[p] {
                    g.add_edge(p, f, 64);
                }
            }
            let residual: Vec<usize> = (0..m).map(|p| quota[p] - load[p]).collect();

            let (mut ref_owner, mut ref_load) = (owner.clone(), load.clone());
            let mut ref_rng = StdRng::seed_from_u64(case as u64);
            let ref_matched = reference_match_and_fill(
                &matcher,
                &g,
                &residual,
                &quota,
                &mut ref_owner,
                &mut ref_load,
                &mut ref_rng,
            );

            let mut fill_rng = StdRng::seed_from_u64(case as u64);
            let matched = matcher.flow_match_with_residual(&g, &residual, &mut owner, &mut load);
            matcher.fill(&quota, &mut owner, &mut load, &mut fill_rng);
            assert_eq!(matched, ref_matched, "case {case}");
            assert_eq!(owner, ref_owner, "case {case}");
            assert_eq!(load, ref_load, "case {case}");
            assert_eq!(fill_rng, ref_rng, "case {case}: draws made by the fill");
        }
    }
}
