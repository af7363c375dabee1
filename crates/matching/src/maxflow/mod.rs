//! Max-flow machinery for the single-data matcher.
//!
//! Two implementations the matcher chooses between with [`FlowAlgo`]:
//!
//! * [`dinic`] — Dinic's algorithm run in place on the locality graph,
//!   building no network; asymptotically faster on the unit-capacity
//!   bipartite shape Opass solves, used by default;
//! * [`edmonds_karp`] — the Ford–Fulkerson variant the paper describes,
//!   over a general [`FlowNetwork`].
//!
//! `dinic` keeps the general-network Dinic it replaced under `cfg(test)`
//! and is held to it owner for owner; `reference` keeps the pre-CSR
//! network and both bodies before that, and the general network is held
//! to them edge for edge.

pub mod dinic;
pub mod edmonds_karp;
pub mod min_cost;
pub mod network;
#[cfg(test)]
pub(crate) mod reference;

pub use min_cost::{CostEdgeId, MinCostFlowNetwork};
pub use network::{EdgeId, FlowNetwork, FlowWork};

/// Which max-flow implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowAlgo {
    /// Dinic's algorithm (default).
    #[default]
    Dinic,
    /// Edmonds–Karp (BFS Ford–Fulkerson), as described in the paper.
    EdmondsKarp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BipartiteGraph, SingleDataMatcher};

    #[test]
    fn both_algorithms_run_via_enum() {
        // File 0 on both processes, file 1 on process 0 only: a maximum
        // flow has to route file 0 through process 1.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0, 64);
        g.add_edge(0, 1, 64);
        g.add_edge(1, 0, 64);
        for algo in [FlowAlgo::Dinic, FlowAlgo::EdmondsKarp] {
            let matcher = SingleDataMatcher {
                algo,
                ..Default::default()
            };
            assert_eq!(matcher.flow_owners(&g), (vec![Some(1), Some(0)], 2));
        }
    }

    #[test]
    fn default_is_dinic() {
        assert_eq!(FlowAlgo::default(), FlowAlgo::Dinic);
    }
}
