//! Max-flow machinery for the single-data matcher.
//!
//! * [`dinic`] — Dinic's algorithm run in place on the locality graph,
//!   building no network: the one max-flow the cardinality objective
//!   runs (`O(E·√V)` on the unit-capacity bipartite shape Opass solves);
//! * [`min_cost`] — successive shortest paths over a general network,
//!   the cold solver of the matched-bytes objective.
//!
//! The general flow network in [`network`] and the Edmonds–Karp body the
//! paper's Ford–Fulkerson names compile only under `cfg(test)`: `dinic`
//! keeps the general-network Dinic it replaced as the oracle it is held
//! to owner for owner, and Edmonds–Karp is the independent oracle the
//! tests below hold the matcher's flow value to.

pub mod dinic;
#[cfg(test)]
pub(crate) mod edmonds_karp;
pub mod min_cost;
pub mod network;

pub use min_cost::{CostEdgeId, MinCostFlowNetwork};
pub use network::FlowWork;
#[cfg(test)]
pub(crate) use network::{EdgeId, FlowNetwork};

/// Which max-flow implementation to run. One variant: the in-place
/// [`dinic`]. It outlives the choice only because the frozen benchmark
/// package names it when it builds a matcher (ROADMAP item 4(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowAlgo {
    /// Dinic's algorithm, in place on the locality graph.
    #[default]
    Dinic,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_data::quotas;
    use crate::{BipartiteGraph, IncrementalMatcher, Objective, SingleDataMatcher};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn default_is_dinic() {
        assert_eq!(FlowAlgo::default(), FlowAlgo::Dinic);
    }

    // The Edmonds–Karp comparisons of `tests/proptests.rs`, here because
    // the oracle compiles only under `cfg(test)`: the same generator,
    // seeds and case counts as the tests they came from.

    /// A random bipartite locality graph as (m, n, edges).
    fn random_bipartite(rng: &mut StdRng) -> (usize, usize, Vec<(usize, usize)>) {
        let m = rng.gen_range(1usize..8);
        let n = rng.gen_range(1usize..40);
        let edges = (0..rng.gen_range(0usize..120))
            .map(|_| (rng.gen_range(0..m), rng.gen_range(0..n)))
            .collect();
        (m, n, edges)
    }

    fn build_graph(m: usize, n: usize, edges: &[(usize, usize)]) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(m, n);
        for &(p, f) in edges {
            g.add_edge(p, f, 64);
        }
        g
    }

    /// Edmonds–Karp over the single-data network `s → p → f → t` built
    /// out with even quotas: the owner its flow gives each file, and the
    /// flow value.
    fn edmonds_karp_owners(g: &BipartiteGraph) -> (Vec<Option<usize>>, usize) {
        let (m, n) = (g.n_procs(), g.n_files());
        let (s, t) = (0, 1 + m + n);
        let mut net = FlowNetwork::new(t + 1);
        for (p, &q) in quotas(n, m).iter().enumerate() {
            if q > 0 {
                net.add_edge(s, 1 + p, q as u64);
            }
        }
        let mut match_edges = Vec::new();
        for p in 0..m {
            for (f, _) in g.files_of(p) {
                match_edges.push((p, f, net.add_edge(1 + p, 1 + m + f, 1)));
            }
        }
        for f in 0..n {
            net.add_edge(1 + m + f, t, 1);
        }
        let value = edmonds_karp::max_flow(&mut net, s, t) as usize;
        let mut owners = vec![None; n];
        for (p, f, e) in match_edges {
            if net.flow_on(e) == 1 {
                assert!(owners[f].is_none(), "file {f} carries two units");
                owners[f] = Some(p);
            }
        }
        (owners, value)
    }

    #[test]
    fn dinic_agrees_with_edmonds_karp() {
        // The matcher's in-place Dinic and Edmonds–Karp over the built
        // network: equally large matchings, though not always the same one.
        let mut rng = StdRng::seed_from_u64(0xB1);
        for case in 0..64 {
            let (m, n, edges) = random_bipartite(&mut rng);
            let g = build_graph(m, n, &edges);
            let (dinic_owners, dinic_files) = SingleDataMatcher::default().flow_owners(&g);
            let (_, ek_files) = edmonds_karp_owners(&g);
            assert_eq!(dinic_files, ek_files, "case {case}");
            assert_eq!(dinic_owners.iter().flatten().count(), dinic_files);
        }
    }

    #[test]
    fn edmonds_karp_never_exceeds_capacity() {
        // No process takes more than its quota (its `s → p` edge), and
        // every owner holds its file locally (a `p → f` edge exists).
        let mut rng = StdRng::seed_from_u64(0xB2);
        for _ in 0..64 {
            let (m, n, edges) = random_bipartite(&mut rng);
            let g = build_graph(m, n, &edges);
            let quota = quotas(n, m);
            let (owners, _) = edmonds_karp_owners(&g);
            let mut load = vec![0usize; m];
            for (f, &p) in owners.iter().enumerate() {
                if let Some(p) = p {
                    assert!(g.weight(p, f).is_some(), "({p}, {f}) not local");
                    load[p] += 1;
                }
            }
            assert!(
                load.iter().zip(&quota).all(|(l, q)| l <= q),
                "{load:?} over {quota:?}"
            );
        }
    }

    #[test]
    fn single_data_matching_is_the_edmonds_karp_maximum() {
        // The matcher's matched count equals an independently computed
        // max-flow over the same quota network.
        let mut rng = StdRng::seed_from_u64(0xB3);
        for case in 0..64 {
            let (m, n, edges) = random_bipartite(&mut rng);
            let seed = rng.gen_range(0u64..1000);
            let g = build_graph(m, n, &edges);
            let out = SingleDataMatcher::default().assign(&g, &mut StdRng::seed_from_u64(seed));
            assert_eq!(out.matched_files, edmonds_karp_owners(&g).1, "case {case}");
        }
    }

    #[test]
    fn dinic_agrees_with_edmonds_karp_through_churn() {
        // The Edmonds–Karp arm of `all_three_matchers_agree_on_cardinality`
        // in `tests/proptests.rs`, on its instances: each graph, and the
        // graph after the same churn through the incremental repair paths.
        let mut rng = StdRng::seed_from_u64(0xB8);
        for case in 0..48 {
            let (m, n, edges) = random_bipartite(&mut rng);
            let g = build_graph(m, n, &edges);
            let dinic_files = |g: &BipartiteGraph| {
                SingleDataMatcher::default()
                    .assign(g, &mut StdRng::seed_from_u64(7))
                    .matched_files
            };
            assert_eq!(dinic_files(&g), edmonds_karp_owners(&g).1, "case {case}");

            let mut inc = IncrementalMatcher::new(g, Objective::MatchCount);
            for i in 0..8 {
                let p = rng.gen_range(0..m);
                let f = rng.gen_range(0..n);
                match (inc.graph().weight(p, f).is_some(), i % 2 == 0) {
                    (true, true) => inc.remove_edge(p, f),
                    (true, false) => inc.stage_remove_edge(p, f),
                    (false, true) => inc.add_edge(p, f, 64),
                    (false, false) => inc.stage_add_edge(p, f, 64),
                }
                if i % 2 != 0 {
                    inc.repair_batch();
                }
            }
            let churned = inc.graph();
            assert_eq!(
                dinic_files(churned),
                edmonds_karp_owners(churned).1,
                "case {case}: post-churn"
            );
        }
    }
}
